"""The classification backends of classify.frame_spectrum: banded and
diagonal extremes against the dense SVD, the accuracy guard and rank cutoff
that send a truncation back to dense, the dense size cap, and the backend
provenance that `classify` writes to meta.spectral."""

import dataclasses
import importlib.util
import json
import pathlib
import sys

import numpy as np
import pytest

import seqforms.classify as classify
import seqforms.operators as operators
from seqforms import (
    DenseTooLarge,
    DiagonalWeights,
    FrameSpectrum,
    ScalarRule,
    TruncationLadder,
    build_bundle,
    classify_finite,
    diagnose_asymptotic,
    frame_spectrum,
    spec_from_json,
)
from seqforms.cli import main

EPS = np.finfo(float).eps
WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_rules():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.RULES


RULES = load_rules()


def dense(spec, dim, count):
    return classify_finite(build_bundle(spec, dim, count))


@pytest.fixture
def banded_everywhere(monkeypatch):
    """Take the banded path at every size, as large truncations do."""
    monkeypatch.setattr(classify, "BANDED_MIN_SIZE", 0)


def assert_agrees(got, ref):
    assert got.backend in ("diagonal", "banded")
    assert got.guard_margin >= 0
    assert abs(got.bessel_bound - ref.bessel_bound) <= 1e-14 * ref.bessel_bound
    # A from S carries an error of about eps * B / A relative
    assert abs(got.lower_bound - ref.lower_bound) <= 4 * EPS * ref.bessel_bound
    rf_error = abs(got.riesz_fischer_bound - ref.riesz_fischer_bound)
    assert rf_error <= 4 * EPS * ref.bessel_bound
    assert got.rank == ref.rank
    for flag in ("complete", "frame", "riesz_basis", "riesz_fischer_possible"):
        assert getattr(got, flag) == getattr(ref, flag), flag


@pytest.mark.parametrize("name", sorted(RULES))
def test_banded_matches_dense_on_benchmark_rules(name, banded_everywhere):
    spec = spec_from_json(RULES[name])
    for N in (4, 16, 128, 1024 // spec.arity):
        count = spec.arity * N
        assert_agrees(frame_spectrum(spec, N, count), dense(spec, N, count))


@pytest.mark.parametrize("name", ["diag_n", "diag_inv_n", "scaled_fd"])
def test_gram_path_when_count_below_dim(name, banded_everywhere):
    # count < dim: B and the Riesz-Fischer bound come from G = X^H X, A is 0
    spec = spec_from_json(RULES[name])
    got, ref = frame_spectrum(spec, 40, 25), dense(spec, 40, 25)
    assert_agrees(got, ref)
    assert got.lower_bound == 0.0 and got.rank == 25


def test_default_crossover_keeps_small_truncations_dense():
    spec = spec_from_json(RULES["diag_n"])
    small = frame_spectrum(spec, 256, 255)
    assert small.backend == "dense" and small.bandwidth is None
    assert frame_spectrum(spec, 256, 256).backend == "diagonal"


def test_rank_deficient_truncation_falls_back_to_dense(banded_everywhere):
    # {e_1, 0, e_2, 0, ...} at count = dim spans half the space: lambda_min = 0
    spec = spec_from_json(RULES["paired_eta"])
    got = frame_spectrum(spec, 12, 12)
    assert got.backend == "dense" and got.bandwidth == 0
    assert got.guard_margin is None
    assert got == dataclasses.replace(dense(spec, 12, 12), bandwidth=0)
    assert got.rank == 6 and not got.complete


def test_guard_sends_ill_conditioned_truncation_to_dense(banded_everywhere):
    # lambda_min / lambda_max = 1e-16 is far below 1e4 * eps: S cannot resolve it
    spec = DiagonalWeights(ScalarRule("table", values=(1.0, 1e-8, 1.0)))
    got = frame_spectrum(spec, 3, 3)
    assert got.backend == "dense" and got.guard_margin < 0
    assert got.lower_bound == dense(spec, 3, 3).lower_bound
    assert got.complete  # sigma_dim = 1e-8 clears 1e-10


def test_wide_band_stays_dense(banded_everywhere):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 12)).tolist()
    rule = {"rule": "explicit", "params": {"matrix": X}}
    got = frame_spectrum(spec_from_json(rule), 12, 12)
    assert got.backend == "dense" and got.bandwidth == 11
    assert got.guard_margin is None


def test_classify_finite_reads_the_dense_spectrum():
    spec = spec_from_json(RULES["interleave_onb_fd"])
    report = classify_finite(build_bundle(spec, 9, 18))
    s = np.linalg.svd(spec.materialize(9, 18), compute_uv=False)
    assert report.rank == 9 and report.backend == "dense"
    ref = FrameSpectrum(9, 18, s[0] ** 2, s[8] ** 2, 9, s[8] ** 2)
    for field in ("bessel_bound", "lower_bound", "riesz_fischer_bound"):
        assert getattr(report, field) == pytest.approx(getattr(ref, field), rel=1e-13)
    # below the banded crossover frame_spectrum is classify_finite itself
    assert frame_spectrum(spec, 9, 18) == report


def test_dense_cap_raises_instead_of_allocating(monkeypatch, banded_everywhere):
    monkeypatch.setattr(operators, "DENSE_MAX_SIZE", 100)
    # column n has support on rows 1..n: it fits every rung, with w = N - 1
    rng = np.random.default_rng(4)
    upper = np.triu(rng.standard_normal((20, 20))) + 5 * np.eye(20)
    wide = spec_from_json({"rule": "explicit", "params": {"matrix": upper.tolist()}})
    with pytest.raises(DenseTooLarge) as err:
        frame_spectrum(wide, 20, 20)
    assert err.value.details == {"dim": 20, "count": 20, "cap": 100, "bandwidth": 19}
    # a banded verdict needs no dense factorization, whatever the size
    scaled_fd = spec_from_json(RULES["scaled_fd"])
    assert frame_spectrum(scaled_fd, 200, 200).backend == "banded"
    with pytest.raises(DenseTooLarge) as err:
        diagnose_asymptotic(wide, TruncationLadder((4, 8, 20)))
    assert err.value.details["rung"] == 20
    assert str(err.value).startswith("ladder rung N=20: ")


def test_cli_dense_cap_is_a_domain_error(
    monkeypatch, tmp_path, capsys, banded_everywhere
):
    monkeypatch.setattr(operators, "DENSE_MAX_SIZE", 5000)
    # diagonal, so w = 0, but lambda_min / lambda_max = 1e-16 fails the guard
    weights = np.ones(80)
    weights[1] = 1e-8
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(
        {"rule": "explicit", "params": {"matrix": np.diag(weights).tolist()}}
    ))
    code = main(["classify", "--spec", str(path), "--dim", "8", "--ladder", "8,16,80"])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 1 and err["type"] == "DenseTooLarge"
    assert err["message"].startswith("ladder rung N=80: ")
    details = err["details"]
    assert (details["rung"], details["dim"], details["count"]) == (80, 80, 80)
    assert details["bandwidth"] == 0 and details["guard_margin"] < 0


def test_cli_meta_names_the_backend_of_every_rung(tmp_path, capsys):
    path = tmp_path / "wn.json"
    path.write_text(json.dumps(RULES["diag_n"]))
    code = main(["classify", "--spec", str(path), "--dim", "16",
                 "--ladder", "16,256,1000"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    spectral = payload["meta"]["spectral"]
    assert spectral["truncation"] == {"backend": "dense", "bandwidth": None,
                                      "guard_margin": None}
    assert [r["size"] for r in spectral["ladder"]] == [16, 256, 1000]
    backends = [r["backend"] for r in spectral["ladder"]]
    assert backends == ["dense", "diagonal", "diagonal"]
    margin = spectral["ladder"][2]["guard_margin"]
    # lambda_min = 1, lambda_max = 1000^2: log10(1 / (1e4 eps 1e6))
    assert margin == pytest.approx(-np.log10(1e10 * EPS))
    assert "spectral" not in payload["report"]
    assert payload["report"]["asymptotic"]["upper_bounds"] == [256.0, 65536.0, 1e6]


def test_a_split_fallback_is_named_blockwise(tmp_path, capsys):
    # lambda_min / lambda_max = 1e-14 fails the guard at w = 0, so the rung
    # falls back to the 256 1 x 1 blocks of its bundle
    weights = [1.0] * 255 + [1e-7]
    rule = {"rule": "diagonal",
            "params": {"weight": {"kind": "table", "values": weights}}}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(rule))
    code = main(["classify", "--spec", str(path), "--dim", "256"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    spectral = payload["meta"]["spectral"]["truncation"]
    assert spectral["backend"] == "blockwise" and spectral["bandwidth"] == 0
    assert spectral["guard_margin"] < 0
    spec = spec_from_json(rule)
    whole = classify_finite(operators.OperatorBundle(spec.materialize(256, 256)))
    assert whole.backend == "dense"
    assert payload["report"] == json.loads(json.dumps(whole.to_dict()))
