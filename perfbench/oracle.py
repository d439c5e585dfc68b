"""Independent checks of seqforms reports.

Every matrix here is built from the rule's definition in the JSON vocabulary,
by index arithmetic on whole arrays, never through seqforms. Expected values
are closed forms from the paper, or are computed here from those matrices
with numpy/scipy; none is a copy of an earlier seqforms output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import scipy.linalg

from workloads import ARITY, CLOSED_BOUNDS

# seqforms' default tolerances, which the CLI uses when no --tol-* is given
RANK_TOL = 1e-10
GROWTH_MIN = 0.25


class CheckError(AssertionError):
    pass


def _reject_constant(name):
    raise CheckError(f"non-standard JSON constant {name}")


def parse_strict(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _close(got, want, tol, what):
    _require(got is not None and abs(got - want) <= tol,
             f"{what}: got {got!r}, expected {want!r} (tolerance {tol:.3g})")


# ---------------------------------------------------------------------------
# rule definitions


def _scalar(rule, n):
    kind = rule["kind"]
    n = n.astype(float)
    if kind == "constant":
        return np.full(n.shape, complex(rule.get("value", 1.0)))
    if kind == "n":
        return n.astype(complex)
    if kind == "1/n":
        return (1.0 / n).astype(complex)
    raise CheckError(f"oracle has no scalar rule {kind!r}")


def entries(rule, n):
    """Support of the terms xi_n for the 1-based indices ``n``: (rows, pos,
    vals), where ``pos`` indexes into ``n``."""
    tag, p = rule["rule"], rule.get("params", {})
    pos = np.arange(n.size)
    if tag == "diagonal":
        return n - 1, pos, _scalar(p["weight"], n)
    if tag == "finite_difference":
        # xi_1 = e_1; xi_n = n (e_n - e_{n-1})
        first = n == 1
        rest = ~first
        rows = np.concatenate([n[first] - 1, n[rest] - 2, n[rest] - 1])
        cols = np.concatenate([pos[first], pos[rest], pos[rest]])
        vals = np.concatenate([np.ones(first.sum()), -n[rest], n[rest]])
        return rows, cols, vals.astype(complex)
    if tag == "interleave":
        odd = n % 2 == 1
        r1, c1, v1 = entries(p["first"], (n[odd] + 1) // 2)
        r2, c2, v2 = entries(p["second"], n[~odd] // 2)
        return (np.concatenate([r1, r2]),
                np.concatenate([pos[odd][c1], pos[~odd][c2]]),
                np.concatenate([v1, v2]))
    if tag == "triple":
        # xi: {e_1, e_1, -e_1, e_2, e_1, -e_1, ...}; eta: {e_1, e_1, e_1, e_2, ...}
        group, slot = (n + 2) // 3, (n - 1) % 3
        if p["kind"] == "eta":
            return group - 1, pos, np.ones(n.size, complex)
        rows = np.where(slot == 0, group - 1, 0)
        vals = np.select([slot == 0, slot == 1], [1.0, 1.0], -1.0)
        return rows, pos, vals.astype(complex)
    if tag == "paired_double":
        # xi: {e_1, e_1, e_2, 2 e_2, ...}; eta: {e_1, 0, e_2, 0, ...}
        k = (n + 1) // 2
        odd = n % 2 == 1
        vals = np.where(odd, 1.0, 0.0 if p["kind"] == "eta" else k)
        return k - 1, pos, vals.astype(complex)
    if tag in ("operator_image", "explicit"):
        pairs = np.asarray(p["matrix"], dtype=float)  # [re, im] entries
        block = (pairs[..., 0] + 1j * pairs[..., 1])[:, n - 1]
        rows, cols = np.nonzero(block)
        return rows, cols, block[rows, cols]
    if tag == "scaled":
        rows, cols, vals = entries(p["base"], n)
        return rows, cols, vals * _scalar(p["factor"], n)[cols]
    raise CheckError(f"oracle has no rule {tag!r}")


def columns(rule, dim, count):
    """dim x count matrix whose column n is xi_n."""
    rows, cols, vals = entries(rule, np.arange(1, count + 1))
    live = vals != 0
    _require(not live.any() or rows[live].max() < dim,
             f"rule support exceeds dim={dim}")
    X = np.zeros((dim, count), complex)
    np.add.at(X, (rows[live], cols[live]), vals[live])
    return X


def bounds(X):
    """(B, A): extreme eigenvalues of the frame matrix X X^H; A = 0 when the
    truncation is undercomplete."""
    ev = np.linalg.eigvalsh(X @ X.conj().T)
    dim, count = X.shape
    return float(ev[-1]), (float(ev[0]) if count >= dim else 0.0)


def _slope(sizes, values):
    v = np.asarray(values, float)
    if np.any(v <= 0):
        return None
    x = np.log(np.asarray(sizes, float))
    y = np.log(v)
    x = x - x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def ladder_class(sizes, uppers, lowers, arity):
    """Class implied by the bounds' log-log slopes along the ladder: B is
    bounded when its slope stays under GROWTH_MIN, A is bounded below when
    every A is positive and its slope stays above -GROWTH_MIN."""
    sb, sa = _slope(sizes, uppers), _slope(sizes, lowers)
    b_bounded = sb is not None and sb < GROWTH_MIN
    a_positive = all(a > 0 for a in lowers) and sa is not None and sa > -GROWTH_MIN
    if sa is None and sb is None:
        return "Inconclusive"
    if a_positive and b_bounded:
        flat = abs(sa) < GROWTH_MIN and abs(sb) < GROWTH_MIN
        return "RieszBasis" if flat and arity == 1 else "Frame"
    if a_positive:
        return "LowerSemiFrame"
    if b_bounded:
        complete = all(a > RANK_TOL**2 * b for a, b in zip(lowers, uppers))
        return "UpperSemiFrame" if complete else "Bessel"
    return "None"


# ---------------------------------------------------------------------------
# report checks


class Oracle:
    """Checks the reports of one workload against its rule files."""

    def __init__(self, inputs_dir):
        self.inputs_dir = inputs_dir
        self._rules = {}

    def rule(self, name):
        if name not in self._rules:
            with open(os.path.join(self.inputs_dir, f"{name}.json")) as fh:
                self._rules[name] = json.load(fh)
        return self._rules[name]

    def matrix(self, name, dim, count):
        return columns(self.rule(name), dim, count)

    @staticmethod
    def check_envelope(op, payload):
        """The parts of a report that change from call to call."""
        _require(payload.get("schema") == "seqforms/1", "schema is not seqforms/1")
        _require(payload.get("command") == op.argv[0],
                 f"command {payload.get('command')!r} != {op.argv[0]!r}")
        runtime = payload.get("meta", {}).get("runtime_s")
        _require(isinstance(runtime, float) and runtime >= 0, "bad meta.runtime_s")

    def check_report(self, op, report):
        """The report body, which is the same for every call of ``op``."""
        try:
            getattr(self, "_" + op.kind.replace("-", "_"))(op, report)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise CheckError(f"malformed report: {type(exc).__name__}: {exc}")

    # -- classify ------------------------------------------------------------

    def _finite(self, name, dim, count, rep):
        X = self.matrix(name, dim, count)
        B, A = bounds(X)
        tol = 1e-10 * B
        _close(rep["bessel_bound"], B, tol, f"{name} B at {dim}x{count}")
        _close(rep["lower_bound"], A, tol, f"{name} A at {dim}x{count}")
        if name in CLOSED_BOUNDS and count == ARITY.get(name, 1) * dim:
            cB, cA = CLOSED_BOUNDS[name](dim)
            _close(rep["bessel_bound"], cB, 1e-9 * cB, f"{name} closed-form B")
            _close(rep["lower_bound"], cA, 1e-9 * cB, f"{name} closed-form A")
        frame = count >= dim and A > RANK_TOL**2 * B
        _require(rep["complete"] == frame and rep["frame"] == frame,
                 f"{name}: complete/frame flags disagree with A/B = {A / B:.3g}")
        _require(rep["riesz_basis"] == (frame and count == dim),
                 f"{name}: riesz_basis flag")
        _require(rep["riesz_fischer_possible"] == (count <= dim),
                 f"{name}: riesz_fischer_possible flag")
        _require((rep["dim"], rep["count"]) == (dim, count), "dim/count echo")

    def _classify(self, op, rep):
        p = op.params
        self._finite(p["spec"], p["dim"], p["count"], rep)

    def _classify_ladder(self, op, rep):
        p = op.params
        name, arity, sizes = p["spec"], p["arity"], p["sizes"]
        self._finite(name, p["dim"], p["count"], rep)
        asym = rep["asymptotic"]
        _require(asym["heuristic"] is True, "ladder verdict not labelled heuristic")
        _require(asym["sizes"] == sizes, f"ladder sizes {asym['sizes']}")
        uppers, lowers = [], []
        for N, got_b, got_a in zip(sizes, asym["upper_bounds"],
                                   asym["lower_bounds"], strict=True):
            B, A = bounds(self.matrix(name, N, arity * N))
            _close(got_b, B, 1e-10 * B, f"{name} B at rung {N}")
            _close(got_a, A, 1e-10 * B, f"{name} A at rung {N}")
            if name in CLOSED_BOUNDS:
                cB, cA = CLOSED_BOUNDS[name](N)
                _close(got_b, cB, 1e-9 * cB, f"{name} closed-form B at rung {N}")
                _close(got_a, cA, 1e-9 * cB, f"{name} closed-form A at rung {N}")
            uppers.append(B)
            lowers.append(A)
        implied = ladder_class(sizes, uppers, lowers, arity)
        _require(asym["inferred_class"] == implied,
                 f"{name}: inferred {asym['inferred_class']}, bounds imply {implied}")
        if "class" in op.expect:
            _require(implied == op.expect["class"],
                     f"{name}: bounds imply {implied}, paper says {op.expect['class']}")
        if "min_lower" in op.expect:
            _require(min(asym["lower_bounds"]) >= op.expect["min_lower"] - 1e-9,
                     f"{name}: lower bound below {op.expect['min_lower']}")

    # -- pair form -----------------------------------------------------------

    def _pair_matrices(self, op):
        p = op.params
        Xxi = self.matrix(p["left"], p["dim"], p["count"])
        Xeta = self.matrix(p["right"], p["dim"], p["count"])
        # associated matrix C_eta^H C_xi with C = X^H
        return Xxi, Xeta, Xeta @ Xxi.conj().T

    def _form_assess(self, op, rep):
        p = op.params
        Xxi, Xeta, T = self._pair_matrices(op)
        s = np.linalg.svd(T, compute_uv=False)
        invertible = s[-1] > RANK_TOL * s[0]
        _require(rep["zero_closed"] == rep["assoc_invertible"],
                 "routes (b) and (a') disagree on 0-closedness")
        _require(rep["assoc_invertible"] == invertible,
                 f"assoc_invertible={rep['assoc_invertible']}, sigma_min/sigma_max "
                 f"= {s[-1] / s[0]:.3g}")
        if op.expect.get("assoc_is_identity"):
            _close(float(np.max(np.abs(T - np.eye(p["dim"])))), 0.0, 1e-12,
                   "associated matrix - I")
            _close(rep["assoc_inverse_norm"], 1.0, 1e-12, "assoc_inverse_norm")
        else:
            _close(rep["assoc_inverse_norm"], 1.0 / s[-1], 1e-9 / s[-1],
                   "assoc_inverse_norm")
        _require(rep["null_dim_left"] == rep["null_dim_right"] == 0,
                 "associated matrix has a null space")
        # c1 = c2 = cosine of the largest principal angle between the
        # analysis ranges, both of full rank dim here
        angles = scipy.linalg.subspace_angles(Xxi.conj().T, Xeta.conj().T)
        cos_max = float(np.cos(angles.max()))
        _close(rep["c1"], cos_max, 1e-9, "c1")
        _close(rep["c2"], cos_max, 1e-9, "c2")
        # the report takes arccos of a cosine, accurate to ~1e-8 near 0
        _close(rep["max_principal_angle"], float(angles.max()), 1e-6,
               "max_principal_angle")
        for side, X in (("xi", Xxi), ("eta", Xeta)):
            B, A = bounds(X)
            _close(rep[f"lower_bound_{side}"], A, 1e-10 * B, f"lower_bound_{side}")
            _require(rep[f"lower_{side}"] is True, f"lower_{side}")
        _require(rep["direct_sum"] == "holds", f"direct_sum={rep['direct_sum']}")
        _require((rep["dim"], rep["count"]) == (p["dim"], p["count"]),
                 "dim/count echo")

    # -- reconstruction ------------------------------------------------------

    @staticmethod
    def _sq_norm2(M):
        return float(np.linalg.svd(M, compute_uv=False)[0] ** 2)

    def _reconstruct_common(self, op, rep, kinds):
        p = op.params
        _require(rep["max_residual"] <= 1e-10,
                 f"max_residual {rep['max_residual']:.3g} > 1e-10")
        _require(rep["trials"] == 50, "trials echo")
        _require((rep["dim"], rep["count"]) == (p["dim"], p["count"]),
                 "dim/count echo")
        _require([s["kind"] for s in rep["systems"]] == kinds,
                 f"dual kinds {[s['kind'] for s in rep['systems']]}")
        return [s["bessel_bound_of_dual"] for s in rep["systems"]]

    def _check_bounds(self, got, want, expect):
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, 1e-8 * w, f"dual {i} Bessel bound")
        for i, w in enumerate(expect.get("dual_bounds", [])):
            _close(got[i], w, 1e-9 * w, f"dual {i} closed-form Bessel bound")
        if "dual_bound_right" in expect:
            w = expect["dual_bound_right"]
            _close(got[1], w, 1e-9 * w, "right dual closed-form Bessel bound")

    def _reconstruct_spec(self, op, rep):
        p = op.params
        got = self._reconstruct_common(op, rep, ["canonical_lower"])
        X = self.matrix(p["spec"], p["dim"], p["count"])
        # sigma_max(C S^{-1})^2 with S = X X^H, i.e. ||S^{-1} X||^2 (= 1/A)
        want = self._sq_norm2(np.linalg.solve(X @ X.conj().T, X))
        self._check_bounds(got, [want], op.expect)

    def _reconstruct_pair(self, op, rep):
        got = self._reconstruct_common(
            op, rep, ["reproducing_left", "reproducing_right"])
        Xxi, Xeta, T = self._pair_matrices(op)
        # sigma_max(C_xi T^{-1})^2 and sigma_max(C_eta T^{-H})^2
        want = [self._sq_norm2(np.linalg.solve(T.conj().T, Xxi)),
                self._sq_norm2(np.linalg.solve(T, Xeta))]
        self._check_bounds(got, want, op.expect)

    # -- scenarios -----------------------------------------------------------

    def _scenario(self, op, rep):
        sid, ladder = op.params["scenario"], op.params["ladder"]
        _require(rep["scenario_id"] == sid, "scenario_id echo")
        claims = {c["reference"]: c for c in rep["claims"]}
        failed = [ref for ref, c in claims.items()
                  if c["status"] == "fail"
                  or (c["status"] == "diagnostic"
                      and not c["evidence"].get("as_expected", True))]
        _require(not failed, f"claims failed: {failed}")
        _require(rep["all_ok"] is True, "all_ok is not true")
        getattr(self, "_sc_" + sid.replace("-", "_"))(claims, ladder)

    @staticmethod
    def _sc_finite_difference(claims, ladder):
        ev = claims["finite-difference/analysis-norm"]["evidence"]
        _require(ev["limit_error"] < 1e-3, f"limit_error {ev['limit_error']}")

    @staticmethod
    def _sc_dc_vs_s(claims, ladder):
        ev = claims["dc-vs-s/analysis-diverges"]["evidence"]
        _require(abs(ev["growth_exponent"] - 1.0) <= 0.15,
                 f"growth exponent {ev['growth_exponent']}")
        # partial sums of |<f, xi_n>|^2 for f = (1/k): the terms are 1/k^2
        # (odd n = 2k-1) and 1 (even n = 2k)
        n = np.arange(1, ladder[-1] + 1)
        k = (n + 1) // 2
        terms = np.where(n % 2 == 1, 1.0 / k**2, 1.0)
        sums = np.cumsum(terms)[np.asarray(ladder) - 1]
        _close(ev["growth_exponent"], _slope(ladder, sums), 1e-9,
               "growth exponent recomputed from the partial sums")

    @staticmethod
    def _sc_telescoping_pair(claims, ladder):
        ev = claims["telescoping-pair/form-is-identity"]["evidence"]
        _require(ev["max_defect"] < 1e-12, f"max_defect {ev['max_defect']}")

    def _sc_interleaved_lower(self, claims, ladder):
        ev = claims["interleaved-lower/lower-bound-exact"]["evidence"]
        _require(ev["min_lower_bound"] >= 1.0 - 1e-9,
                 f"min_lower_bound {ev['min_lower_bound']}")
        rule = {"rule": "interleave",
                "params": {"first": {"rule": "diagonal", "params": {
                    "weight": {"kind": "constant", "value": 1.0}}},
                    "second": {"rule": "finite_difference"}}}
        lowest, largest = math.inf, 0.0
        for N in ev["sizes"]:
            B, A = bounds(columns(rule, N, 2 * N))
            lowest, largest = min(lowest, A), max(largest, B)
        _close(ev["min_lower_bound"], lowest, 1e-10 * largest, "min_lower_bound")
