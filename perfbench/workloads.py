"""Workload definitions: the rule files each workload writes from its seed,
the round of CLI calls it repeats, and the warm-up calls of its set-up.

Nothing here imports seqforms. The same definitions drive the workload
process (which feeds the argv lists to ``seqforms.cli.main``) and the
oracle (which reads the rule files and the closed-form expectations).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# Closed loop, one client. Every timed run keeps starting rounds until it has
# both measured for --seconds and completed this many calls, so that the
# 90th percentile has at least ten samples beyond it.
MIN_OPS = 100

# The paper's structured rules, in the JSON vocabulary of spec_from_json.
ONB = {"rule": "diagonal", "params": {"weight": {"kind": "constant", "value": 1.0}}}
RULES = {
    "diag_n": {"rule": "diagonal", "params": {"weight": {"kind": "n"}}},
    "diag_inv_n": {"rule": "diagonal", "params": {"weight": {"kind": "1/n"}}},
    "onb": ONB,
    "interleave_onb_fd": {
        "rule": "interleave",
        "params": {"first": ONB, "second": {"rule": "finite_difference"}},
    },
    "triple_xi": {"rule": "triple", "params": {"kind": "xi"}},
    "triple_eta": {"rule": "triple", "params": {"kind": "eta"}},
    "paired_xi": {"rule": "paired_double", "params": {"kind": "xi"}},
    "paired_eta": {"rule": "paired_double", "params": {"kind": "eta"}},
    # xi_n = (1/n) * n (e_n - e_{n-1}) = e_n - e_{n-1}: the backward difference
    "scaled_fd": {
        "rule": "scaled",
        "params": {"base": {"rule": "finite_difference"}, "factor": {"kind": "1/n"}},
    },
}

ARITY = {"interleave_onb_fd": 2, "triple_xi": 3, "triple_eta": 3,
         "paired_xi": 2, "paired_eta": 2}

# Closed-form frame bounds (B, A) at dim N and count arity * N.
CLOSED_BOUNDS = {
    "diag_n": lambda N: (float(N * N), 1.0),
    "diag_inv_n": lambda N: (1.0, 1.0 / (N * N)),
    "onb": lambda N: (1.0, 1.0),
    "triple_eta": lambda N: (3.0, 3.0),
}

# Expected ladder classes, from the paper's worked examples.
LADDER_CLASS = {
    "diag_n": "LowerSemiFrame",
    "diag_inv_n": "UpperSemiFrame",
    "onb": "RieszBasis",
    "triple_eta": "Frame",
    "interleave_onb_fd": "LowerSemiFrame",
}

DEFAULT_LADDER = "100,1000,10000"
LONG_LADDER = "100,1000,10000,20000"


@dataclass(frozen=True)
class Op:
    """One CLI call of a round. ``argv`` names rule files relative to the
    inputs directory; ``params`` and ``expect`` are read by the oracle."""

    id: str
    kind: str  # classify | classify-ladder | form-assess | reconstruct-pair
    #            | reconstruct-spec | scenario
    argv: tuple
    params: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)

    def resolved_argv(self, inputs_dir: str, out: str) -> list:
        argv = [os.path.join(inputs_dir, a) if a.endswith(".json") else a
                for a in self.argv]
        return argv + ["--out", out]


def _unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_operator(rng, n):
    """U diag(s) W^H with Haar-like unitaries and s uniform in [0.5, 2], so
    every pair drawn has a well-conditioned associated matrix Z V^H."""
    s = rng.uniform(0.5, 2.0, n)
    return (_unitary(rng, n) * s) @ _unitary(rng, n).conj().T


def _matrix_rule(tag, M):
    pairs = np.stack([M.real, M.imag], axis=-1).tolist()
    return {"rule": tag, "params": {"matrix": pairs}}


def _classify(name, rule, dim, count=None):
    argv = ["classify", "--spec", f"{rule}.json", "--dim", str(dim)]
    if count is not None:
        argv += ["--count", str(count)]
    return Op(name, "classify", tuple(argv),
              {"spec": rule, "dim": dim, "count": count or dim})


def _pair(kind, name, left, right, dim, count=None, expect=None):
    cmd = "form-assess" if kind == "form-assess" else "reconstruct"
    argv = [cmd, "--left", f"{left}.json", "--right", f"{right}.json",
            "--dim", str(dim)]
    if count is not None:
        argv += ["--count", str(count)]
    return Op(name, kind, tuple(argv),
              {"left": left, "right": right, "dim": dim, "count": count or dim},
              expect or {})


def _dense_pair(rng):
    V = random_operator(rng, 192)
    Z = random_operator(rng, 192)
    W = random_operator(rng, 256)
    files = {
        "diag_n": RULES["diag_n"],
        "diag_inv_n": RULES["diag_inv_n"],
        "triple_xi": RULES["triple_xi"],
        "triple_eta": RULES["triple_eta"],
        "rand_v": _matrix_rule("operator_image", V),
        "rand_z": _matrix_rule("explicit", Z),
        "rand_w": _matrix_rule("operator_image", W),
    }
    eye = {"assoc_is_identity": True}
    ops = [
        _pair("form-assess", "fa-weights-256", "diag_n", "diag_inv_n", 256,
              expect=eye),
        _pair("form-assess", "fa-triple-128", "triple_xi", "triple_eta", 128,
              384, expect=eye),
        _pair("form-assess", "fa-random-192", "rand_v", "rand_z", 192),
        # T = I: the duals are xi and eta themselves, bounds N^2 and 1
        _pair("reconstruct-pair", "rp-weights-256", "diag_n", "diag_inv_n",
              256, expect={"dual_bounds": [256.0**2, 1.0]}),
        # T = I, so the right dual is eta itself, with Bessel bound 3
        _pair("reconstruct-pair", "rp-triple-128", "triple_xi", "triple_eta",
              128, 384, expect={"dual_bound_right": 3.0}),
        _pair("reconstruct-pair", "rp-random-192", "rand_v", "rand_z", 192),
        _pair("reconstruct-pair", "rp-random-192-swapped", "rand_z", "rand_v",
              192),
        Op("rs-weights-384", "reconstruct-spec",
           ("reconstruct", "--spec", "diag_n.json", "--dim", "384"),
           {"spec": "diag_n", "dim": 384, "count": 384},
           # canonical dual of {n e_n}: Bessel bound 1/A = 1
           {"dual_bounds": [1.0]}),
        Op("rs-random-256", "reconstruct-spec",
           ("reconstruct", "--spec", "rand_w.json", "--dim", "256"),
           {"spec": "rand_w", "dim": 256, "count": 256}),
        _classify("cl-weights-384", "diag_n", 384),
        _classify("cl-triple-eta-192", "triple_eta", 192, 576),
        _classify("cl-random-256", "rand_w", 256),
    ]
    return files, ops


def _class_ladder(rng):
    files = {name: RULES[name] for name in (
        "diag_n", "diag_inv_n", "onb", "interleave_onb_fd", "triple_xi",
        "triple_eta", "paired_xi", "paired_eta", "scaled_fd")}
    ops = []
    for name in files:
        arity = ARITY.get(name, 1)
        # the analysis matrix of the top rung has 512 rows (count = arity * N)
        top = 512 // arity
        sizes = [top // 8, top // 4, top // 2, top]
        dim = sizes[0]
        expect = {}
        if name in LADDER_CLASS:
            expect["class"] = LADDER_CLASS[name]
        if name == "interleave_onb_fd":
            expect["min_lower"] = 1.0
        ops.append(Op(
            f"ladder-{name}", "classify-ladder",
            ("classify", "--spec", f"{name}.json", "--dim", str(dim),
             "--count", str(arity * dim),
             "--ladder", ",".join(map(str, sizes))),
            {"spec": name, "dim": dim, "count": arity * dim, "arity": arity,
             "sizes": sizes},
            expect,
        ))
    return files, ops


def _scenario(sid, ladder):
    tag = "long" if ladder == LONG_LADDER else "default"
    return Op(f"sc-{sid}-{tag}", "scenario",
              ("scenario", "--id", sid, "--ladder", ladder),
              {"scenario": sid, "ladder": [int(s) for s in ladder.split(",")]})


def _series_ladder(rng):
    ops = [_scenario(sid, DEFAULT_LADDER) for sid in (
        "finite-difference", "interleaved-lower", "dc-vs-s", "telescoping-pair")]
    # the cheapest series runs twice a round, once on the longer ladder
    ops.append(_scenario("finite-difference", LONG_LADDER))
    return {}, ops


_BUILDERS = {
    "dense-pair": _dense_pair,
    "class-ladder": _class_ladder,
    "series-ladder": _series_ladder,
}
WORKLOADS = tuple(_BUILDERS)


def warmup_ops(workload):
    """One tiny call per operation kind, on the small structured rules."""
    if workload == "series-ladder":
        return [Op(f"warm-{sid}", "scenario",
                   ("scenario", "--id", sid, "--ladder", "10,20,40"))
                for sid in ("finite-difference", "interleaved-lower",
                            "dc-vs-s", "telescoping-pair")]
    if workload == "class-ladder":
        return [Op("warm-ladder", "classify-ladder",
                   ("classify", "--spec", "diag_n.json", "--dim", "8",
                    "--ladder", "4,8,16"))]
    small = ("--dim", "8")
    return [
        Op("warm-fa", "form-assess", ("form-assess", "--left", "diag_n.json",
                                      "--right", "diag_inv_n.json") + small),
        Op("warm-rp", "reconstruct-pair",
           ("reconstruct", "--left", "diag_n.json", "--right",
            "diag_inv_n.json", "--trials", "2") + small),
        Op("warm-rs", "reconstruct-spec",
           ("reconstruct", "--spec", "diag_n.json", "--trials", "2") + small),
        Op("warm-cl", "classify", ("classify", "--spec", "diag_n.json") + small),
    ]


def build(workload: str, seed: int):
    """Rule files ({name: rule dict}) and the round of operations.

    The seed draws the random operators of dense-pair. The structured rules
    and scenarios of the other workloads have nothing random to draw, and
    the order of a round is fixed, so their inputs are the same for every seed.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    return _BUILDERS[workload](np.random.default_rng(seed))


def write_inputs(files: dict, inputs_dir: str) -> None:
    os.makedirs(inputs_dir, exist_ok=True)
    for name, rule in files.items():
        with open(os.path.join(inputs_dir, f"{name}.json"), "w") as fh:
            fh.write(json.dumps(rule))
