import math

import numpy as np
import pytest

from seqforms import TruncationLadder, run_scenario, scenario_ids
from seqforms.errors import UnknownScenario
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


def norm_split_defect_by_column(ladder):
    """max_relative_defect of interleaved-lower, one math.fsum per rung,
    vector and sum, on the scenario's own 100 draws."""
    n_vecs = 100
    inter = Interleave(DiagonalWeights(ScalarRule("constant", 1.0)), FiniteDifference())
    dim = ladder.top
    rng = np.random.default_rng(5)
    F = rng.standard_normal((dim, n_vecs)) + 1j * rng.standard_normal((dim, n_vecs))
    A2 = np.abs(inter.materialize_sparse(dim, 2 * dim).conj().T.dot(F)) ** 2
    fnorm2 = np.abs(F) ** 2
    worst = 0.0
    for N in ladder.sizes:
        for j in range(n_vecs):
            total = math.fsum(A2[: 2 * N, j])
            base_part = math.fsum(A2[1 : 2 * N : 2, j])
            norm_part = math.fsum(fnorm2[:N, j])
            worst = max(worst, abs(total - base_part - norm_part) / max(1.0, total))
    return worst


def test_interleaved_lower_norm_split_matches_per_column_fsum():
    ladder = TruncationLadder((20, 200, 2000))
    rep = run_scenario("interleaved-lower", ladder)
    claim = next(c for c in rep.claims if c.reference == "interleaved-lower/norm-identity")
    assert claim.evidence["max_relative_defect"] == norm_split_defect_by_column(ladder)


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
