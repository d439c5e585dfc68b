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


def test_traced_classification_records_each_dense_verdict(tmp_path):
    """classify_finite is the one classification from singular values: the
    tracer sees it once per dense or blockwise rung, once more for a
    truncation that is not a rung, and once per sequence of a pair."""
    rule, inverse = tmp_path / "wn.json", tmp_path / "winv.json"
    for path, kind in ((rule, "n"), (inverse, "1/n")):
        path.write_text(json.dumps(
            {"rule": "diagonal", "params": {"weight": {"kind": kind}}}))
    out = tmp_path / "report.json"
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        rc = cli.main(["classify", "--spec", str(rule), "--dim", "8",
                       "--ladder", "8,16,256", "--out", str(out)])
        ladder_spans = len(tracer.spans)
        rc_pair = cli.main(["form-assess", "--left", str(rule),
                            "--right", str(inverse), "--dim", "8",
                            "--out", str(tmp_path / "pair.json")])
    finally:
        tracer.uninstall()
    assert rc == 0 and rc_pair == 0
    spectral = json.loads(out.read_text())["meta"]["spectral"]
    backends = [spectral["truncation"]["backend"]]
    backends += [rung["backend"] for rung in spectral["ladder"]]
    # each member of {n e_n} has one nonzero coordinate: 1 x 1 blocks at
    # every rung, each classified by classify_finite; the truncation 8 x 8
    # is the rung N = 8, whose spectrum is reused
    assert backends == ["blockwise"] * 4

    def verdicts(spans):
        return sum(span[0] == "classify.classify_finite" for span in spans)

    assert verdicts(tracer.spans[:ladder_spans]) == 3
    assert verdicts(tracer.spans[ladder_spans:]) == 2
