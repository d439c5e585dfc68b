"""The benchmark's tracer wraps seqforms functions by name: a rename under
src/ must fail here, not silently drop a layer from `run.py --trace 1`."""

import importlib.util
import json
import pathlib

import seqforms.cli as cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_scenario_records_the_series_layers(tmp_path):
    tracer = load_tracing().Tracer()
    out = tmp_path / "report.json"
    tracer.install()
    try:
        rc = cli.main(["scenario", "--id", "finite-difference",
                       "--ladder", "10,20,40", "--out", str(out)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert json.loads(out.read_text())["report"]["scenario_id"] == "finite-difference"
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "scenarios.run_scenario",
            "sequences.SequenceSpec.materialize_sparse",
            "core.probe_series"} <= names
    assert tracer.counts["core.probe_series_terms"] == 2 * 40
