"""The classification backends of classify.frame_spectrum: banded extremes
and 1 x k blocks against the dense SVD, the accuracy guard and rank cutoff
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
    FrameSpectrum,
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
    """The one-block answer: numpy's SVD of the dense columns."""
    return classify_finite(operators.OperatorBundle(spec.materialize(dim, count)))


@pytest.fixture
def banded_everywhere(monkeypatch):
    """Take the banded path at every size, as large truncations do."""
    monkeypatch.setattr(classify, "BANDED_MIN_SIZE", 0)


def assert_agrees(got, ref):
    assert got.backend in ("blockwise", "banded")
    assert got.backend == "blockwise" or got.guard_margin >= 0
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
    """A banded rule is dense below the crossover and banded from it on; a
    rule whose members have one nonzero coordinate splits on both sides."""
    spec = spec_from_json(RULES["scaled_fd"])
    small = frame_spectrum(spec, 256, 255)
    assert small.backend == "dense" and small.bandwidth is None
    assert frame_spectrum(spec, 256, 256).backend == "banded"
    spec = spec_from_json(RULES["diag_n"])
    for count in (255, 256):
        got = frame_spectrum(spec, 256, count)
        assert got.backend == "blockwise" and got.bandwidth is None


def test_rank_deficient_truncation_falls_back_to_dense(banded_everywhere):
    # the finite differences without xi_2 span a hyperplane: lambda_min ~ 0
    spec = spec_from_json({"rule": "scaled", "params": {
        "base": {"rule": "finite_difference"},
        "factor": {"kind": "table", "values": [1.0, 0.0] + [1.0] * 10}}})
    got = frame_spectrum(spec, 12, 12)
    assert got.backend == "dense" and got.bandwidth == 1
    assert got.guard_margin is None or got.guard_margin < 0
    assert got == dataclasses.replace(dense(spec, 12, 12), bandwidth=1,
                                      guard_margin=got.guard_margin)
    assert got.rank == 11 and not got.complete


def test_guard_sends_ill_conditioned_truncation_to_dense(banded_everywhere):
    # lambda_min / lambda_max = 1e-16 is far below 1e4 * eps: S cannot resolve it
    spec = spec_from_json({"rule": "explicit", "params": {"matrix": [
        [1.0, 1.0, 0.0], [0.0, 1e-8, 0.0], [0.0, 0.0, 1.0]]}})
    got = frame_spectrum(spec, 3, 3)
    assert got.backend == "dense" and got.guard_margin < 0
    assert got.lower_bound == dense(spec, 3, 3).lower_bound
    assert got.complete  # sigma_dim = 1e-8 clears 1e-10


def test_wide_band_stays_dense(banded_everywhere):
    """A wide band stays dense; so does a matrix with no zero entry, which is
    materialized dense at once, with no band looked for."""
    X = np.random.default_rng(3).standard_normal((12, 12))
    got = frame_spectrum(spec_from_json(
        {"rule": "explicit", "params": {"matrix": X.tolist()}}), 12, 12)
    assert got.backend == "dense" and got.bandwidth is None
    X[5, 0] = 0.0
    got = frame_spectrum(spec_from_json(
        {"rule": "explicit", "params": {"matrix": X.tolist()}}), 12, 12)
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
    # bidiagonal, so w = 1, but lambda_min / lambda_max = 1e-16 fails the guard
    weights = np.ones(80)
    weights[1] = 1e-8
    X = np.diag(weights)
    X[0, 1] = 1.0
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"rule": "explicit", "params": {"matrix": X.tolist()}}))
    code = main(["classify", "--spec", str(path), "--dim", "8", "--ladder", "8,16,80"])
    err = json.loads(capsys.readouterr().err)["error"]
    assert code == 1 and err["type"] == "DenseTooLarge"
    assert err["message"].startswith("ladder rung N=80: ")
    details = err["details"]
    assert (details["rung"], details["dim"], details["count"]) == (80, 80, 80)
    assert details["bandwidth"] == 1 and details["guard_margin"] < 0


def test_cli_meta_names_the_backend_of_every_rung(tmp_path, capsys):
    path = tmp_path / "wn.json"
    path.write_text(json.dumps(RULES["diag_n"]))
    code = main(["classify", "--spec", str(path), "--dim", "16",
                 "--ladder", "16,256,1000"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    spectral = payload["meta"]["spectral"]
    # each member of {n e_n} has one nonzero coordinate: 1 x 1 blocks at every
    # size, with no band or guard
    blockwise = {"backend": "blockwise", "bandwidth": None, "guard_margin": None}
    assert spectral["truncation"] == blockwise
    assert [r["size"] for r in spectral["ladder"]] == [16, 256, 1000]
    assert [{**r, "size": None} for r in spectral["ladder"]] == [
        {**blockwise, "size": None}] * 3
    assert "spectral" not in payload["report"]
    assert payload["report"]["asymptotic"]["upper_bounds"] == [256.0, 65536.0, 1e6]


def test_a_split_fallback_is_named_blockwise(tmp_path, capsys):
    # lambda_min / lambda_max = 1e-14 would fail a guard on S; the 256 1 x 1
    # blocks of the bundle need none
    weights = [1.0] * 255 + [1e-7]
    rule = {"rule": "diagonal",
            "params": {"weight": {"kind": "table", "values": weights}}}
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(rule))
    code = main(["classify", "--spec", str(path), "--dim", "256"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    spectral = payload["meta"]["spectral"]["truncation"]
    assert spectral == {"backend": "blockwise", "bandwidth": None, "guard_margin": None}
    spec = spec_from_json(rule)
    whole = classify_finite(operators.OperatorBundle(spec.materialize(256, 256)))
    assert whole.backend == "dense"
    assert payload["report"] == json.loads(json.dumps(whole.to_dict()))
