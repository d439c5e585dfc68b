import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from seqforms import (
    DEFAULT_TOL,
    Tolerances,
    TruncationLadder,
    run_scenario,
    scenario_ids,
)
from seqforms import core
from seqforms.errors import UnknownScenario
from seqforms.scenarios import _CLAIMS, _gaussian
from seqforms.sequences import DiagonalWeights, FiniteDifference, Interleave, ScalarRule

# ladder rungs a decade apart, like the default, so tail estimates behave
SMALL = TruncationLadder((30, 300, 3000))


def test_catalog_is_stable():
    assert scenario_ids() == [
        "dc-vs-s",
        "finite-difference",
        "interleaved-lower",
        "operator-image",
        "telescoping-pair",
        "weight-inverse-pair",
        "weighted-riesz",
    ]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, Tolerances(rank_tol=2.0)],
                         ids=["default", "rank_tol=2"])
def test_every_scenario_reports_exactly_its_declared_claims(tol):
    for sid in scenario_ids():
        declared = [ref for ref in _CLAIMS if ref.split("/")[0] == sid]
        assert declared
        references = [c.reference for c in run_scenario(sid, tol=tol).claims]
        assert references == declared, sid


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        run_scenario("unknown")


def test_weight_inverse_pair_all_pass():
    rep = run_scenario("weight-inverse-pair", TruncationLadder((8, 16, 32)))
    assert rep.all_ok
    by_ref = {c.reference: c for c in rep.claims}
    assert by_ref["weight-inverse-pair/associated-identity"].status == "pass"
    assert by_ref["weight-inverse-pair/reconstruction"].status == "pass"


def test_operator_image_all_pass():
    rep = run_scenario("operator-image")
    assert rep.all_ok
    assert all(c.status == "pass" for c in rep.claims)


def test_weighted_riesz_all_pass():
    rep = run_scenario("weighted-riesz")
    assert rep.all_ok
    by_ref = {c.reference: c for c in rep.claims}
    assert by_ref["weighted-riesz/spectrum"].evidence["max_eigenvalue_defect"] < 1e-8


def test_finite_difference_small_ladder():
    rep = run_scenario("finite-difference", SMALL)
    by_ref = {c.reference: c for c in rep.claims}
    series = by_ref["finite-difference/frame-series-diverges"]
    assert series.evidence["verdict"] == "Diverged"
    assert series.evidence["cauchy_gap"] >= 0.5


def test_telescoping_pair_small_ladder():
    rep = run_scenario("telescoping-pair", SMALL)
    assert rep.all_ok
    by_ref = {c.reference: c for c in rep.claims}
    assert by_ref["telescoping-pair/form-is-identity"].status == "pass"
    assert by_ref["telescoping-pair/domain-defect-e1"].evidence["verdict"] == "Diverged"


def test_dc_vs_s_small_ladder():
    rep = run_scenario("dc-vs-s", SMALL)
    by_ref = {c.reference: c for c in rep.claims}
    assert by_ref["dc-vs-s/multiplier-identity"].status == "pass"
    assert by_ref["dc-vs-s/analysis-diverges"].evidence["verdict"] == "Diverged"


def test_interleaved_lower_small_ladder():
    rep = run_scenario("interleaved-lower", SMALL)
    assert rep.all_ok


def norm_split_by_column(ladder):
    """(max_relative_defect, min_ratio) of interleaved-lower, one math.fsum
    per rung, vector and sum over whole arrays, on the scenario's own 100
    draws."""
    n_vecs = 100
    inter = Interleave(DiagonalWeights(ScalarRule("constant", 1.0)), FiniteDifference())
    dim = ladder.top
    rng = np.random.default_rng(5)
    F = rng.standard_normal((dim, n_vecs)) + 1j * rng.standard_normal((dim, n_vecs))
    A2 = np.abs(inter.materialize_sparse(dim, 2 * dim).conj().T.dot(F)) ** 2
    fnorm2 = np.abs(F) ** 2
    worst, min_ratio = 0.0, math.inf
    for N in ladder.sizes:
        for j in range(n_vecs):
            total = math.fsum(A2[: 2 * N, j])
            base_part = math.fsum(A2[1 : 2 * N : 2, j])
            norm_part = math.fsum(fnorm2[:N, j])
            worst = max(worst, abs(total - base_part - norm_part) / max(1.0, total))
            min_ratio = min(min_ratio, total / norm_part)
    return worst, min_ratio


def test_interleaved_lower_norm_split_matches_per_column_fsum():
    # ladders whose rungs meet, straddle or pass the edge of a 1024-row
    # block, each summed in blocks of 1024 rows and of 3 and 5
    for sizes in [(20, 200, 2000), (1023, 1024, 1025), (7, 1030, 2049)]:
        ladder = TruncationLadder(sizes)
        worst, min_ratio = norm_split_by_column(ladder)
        for block in [1024, 3, 5]:
            with mock.patch.object(core, "FSUM_BLOCK_ROWS", block):
                rep = run_scenario("interleaved-lower", ladder)
            ev = {c.reference.split("/")[1]: c.evidence for c in rep.claims}
            assert ev["norm-identity"]["max_relative_defect"] == worst, (sizes, block)
            assert ev["lower-bound-sampled"]["min_ratio"] == min_ratio, (sizes, block)


def test_interleaved_lower_holds_one_probe_draw():
    """Past its 100 x top x 2 draw of probes (30.5 MB at top 20000), the
    scenario holds row blocks only: no array of the top's size."""
    run_scenario("interleaved-lower", TruncationLadder((10, 20, 40)))  # warm
    tracemalloc.start()
    try:
        run_scenario("interleaved-lower", TruncationLadder((100, 1000, 20000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (2 * 20000 * 100 * 8)


def test_reports_are_reproducible():
    a = run_scenario("weighted-riesz").to_dict()
    b = run_scenario("weighted-riesz").to_dict()
    assert a == b


def test_report_serialization_shape():
    rep = run_scenario("operator-image")
    d = rep.to_dict()
    assert set(d) == {"scenario_id", "all_ok", "claims"}
    for claim in d["claims"]:
        assert claim["status"] in ("pass", "fail", "diagnostic")
        assert claim["reference"].startswith("operator-image/")
    assert rep.runtime > 0  # the CLI writes it to meta.runtime_s


@pytest.mark.parametrize("shape", [7, (5, 3), (1, 4), 0])
def test_gaussian_draws_the_old_stream_bit_for_bit(shape):
    """One complex array written in place holds exactly the values of the
    sum of the real and the imaginary draws."""
    old = np.random.default_rng(5)
    reference = old.standard_normal(shape) + 1j * old.standard_normal(shape)
    new = np.random.default_rng(5)
    z = _gaussian(new, shape)
    assert z.dtype == complex and z.shape == reference.shape
    assert z.tobytes() == reference.tobytes()
    # the generator is left where the old expression left it
    assert new.standard_normal() == old.standard_normal()
