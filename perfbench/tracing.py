"""Spans and counts around the public functions of each seqforms layer.

``Tracer.install`` swaps wrappers into every seqforms module that holds one
of the listed functions (so ``seqforms.cli.build_bundle`` and
``seqforms.scenarios.build_bundle`` are both wrapped), onto the
``SequenceSpec`` methods, and onto the dense factorizations of
``numpy.linalg`` and ``scipy.linalg``. ``uninstall`` puts the originals back.
Nothing under ``src/`` changes. Spans and counts stay in memory until
``dump`` writes them; ``layer_metrics`` derives the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYER_FUNCTIONS = {
    "cli": ("main",),
    "sequences": ("spec_from_json", "materialize"),
    "operators": ("build_bundle", "bundle_from_columns", "range_basis",
                  "complement_basis", "direct_sum_check", "principal_angles"),
    "classify": ("classify_finite", "diagnose_asymptotic"),
    "forms": ("zero_closed_check", "zero_closed_from_bundles",
              "infsup_constants"),
    "reconstruct": ("canonical_dual", "reproducing_pair_duals",
                    "reconstruct_with"),
    "scenarios": ("run_scenario",),
    "core": ("probe_series", "partial_sum_trend"),
}
SPEC_METHODS = ("materialize", "materialize_sparse")
LINALG_FUNCTIONS = ("svd", "inv", "solve", "pinv", "eigh", "eigvalsh",
                    "eigvals", "norm")

# span name -> group; inclusive times and call counts take the outermost
# span of a group, so recursion and wrapper-of-wrapper calls count once
GROUPS = {
    "cli.main": "cli",
    "sequences.spec_from_json": "spec_from_json",
    "sequences.materialize": "materialize",
    "sequences.SequenceSpec.materialize": "materialize",
    "sequences.SequenceSpec.materialize_sparse": "materialize",
    "operators.build_bundle": "build_bundle",
    "operators.bundle_from_columns": "build_bundle",
    "operators.range_basis": "subspace",
    "operators.complement_basis": "subspace",
    "operators.direct_sum_check": "subspace",
    "operators.principal_angles": "subspace",
    "classify.classify_finite": "classify_finite",
    "classify.diagnose_asymptotic": "diagnose_asymptotic",
    "forms.zero_closed_check": "zero_closed_check",
    "forms.zero_closed_from_bundles": "zero_closed",
    "forms.infsup_constants": "infsup",
    "reconstruct.canonical_dual": "duals",
    "reconstruct.reproducing_pair_duals": "duals",
    "reconstruct.reconstruct_with": "reconstruct_with",
    "scenarios.run_scenario": "run_scenario",
    "core.probe_series": "probe_series",
    "core.partial_sum_trend": "partial_sum_trend",
}


def _elements(a) -> int:
    return int(np.prod(np.shape(a)))


class Tracer:
    """In-memory spans (name, start, end, parent, op) and counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if extra is not None:
                extra(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _linalg(self, name, fn):
        counts = self.counts

        def count_elements(args, kwargs):
            a = args[0] if args else kwargs.get("a", kwargs.get("x"))
            counts["linalg.elements"] += _elements(a)

        if name != "norm":
            return self._span(f"linalg.{name}", fn, count_elements)
        # only the spectral norm of a matrix is a factorization (an SVD)
        spectral = self._span("linalg.norm2", fn, count_elements)

        @functools.wraps(fn)
        def norm(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) == 2:
                return spectral(x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)

        return norm

    def _probe_series(self, fn):
        counts = self.counts

        def count_terms(args, kwargs):
            ladder = args[1] if len(args) > 1 else kwargs["ladder"]
            counts["core.probe_series_terms"] += ladder.sizes[-1]

        return self._span("core.probe_series", fn, count_terms)

    # -- install -------------------------------------------------------------

    def _patch(self, owner, attribute, wrapper):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self):
        """Wrap every listed function wherever seqforms holds it by name."""
        import numpy.linalg
        import scipy.linalg

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "seqforms" or name.startswith("seqforms.")}
        replacements = {}  # id(original) -> wrapper
        for layer, names in LAYER_FUNCTIONS.items():
            mod = modules[f"seqforms.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrapper = (self._probe_series(fn) if fname == "probe_series"
                           else self._span(f"{layer}.{fname}", fn))
                replacements[id(fn)] = wrapper
        for lib in (numpy.linalg, scipy.linalg):
            for fname in LINALG_FUNCTIONS:
                fn = getattr(lib, fname)
                if id(fn) not in replacements:
                    replacements[id(fn)] = self._linalg(fname, fn)
                self._patch(lib, fname, replacements[id(fn)])
        for mod in modules.values():
            for attribute, value in list(vars(mod).items()):
                if callable(value) and id(value) in replacements:
                    self._patch(mod, attribute, replacements[id(value)])

        base = modules["seqforms.sequences"].SequenceSpec
        for method in SPEC_METHODS:
            self._patch(base, method, self._span(
                f"sequences.SequenceSpec.{method}", base.__dict__[method]))
        pending = [base]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if "term_entries" in cls.__dict__:
                self._patch(cls, "term_entries", self._counter(
                    "sequences.term_entries", cls.__dict__["term_entries"]))

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output --------------------------------------------------------------

    def dump(self, path, ops):
        """One header line {"ops", "counts"}, then one line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": ops, "counts": dict(self.counts)}) + "\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op})
                         + "\n")


def load(path):
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return header, spans


PER_LAYER = (
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("sequences.spec_from_json_s", "s"),
    ("sequences.materialize_s", "s"), ("sequences.materialize_calls", "count"),
    ("sequences.term_entries_calls", "count"),
    ("operators.build_bundle_s", "s"), ("operators.build_bundle_calls", "count"),
    ("operators.subspace_s", "s"), ("operators.subspace_calls", "count"),
    ("classify.classify_finite_s", "s"),
    ("classify.diagnose_asymptotic_self_s", "s"),
    ("forms.zero_closed_self_s", "s"), ("forms.infsup_self_s", "s"),
    ("reconstruct.duals_s", "s"), ("reconstruct.reconstruct_with_s", "s"),
    ("reconstruct.reconstruct_with_calls", "count"),
    ("scenarios.run_scenario_self_s", "s"),
    ("core.probe_series_s", "s"), ("core.probe_series_terms", "count"),
    ("core.partial_sum_trend_calls", "count"),
    ("linalg.factorizations", "count"), ("linalg.factorization_s", "s"),
    ("linalg.factorized_elements", "count"),
)


def layer_metrics(header, spans, output_bytes):
    """Per-operation averages over the traced operations.

    ``_s`` metrics are inclusive times of the outermost span of a group, or
    self times (a span minus its direct children) where the name says
    ``self``; counts are exact.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]

    def group(s):
        return "linalg" if s["name"].startswith("linalg.") else GROUPS[s["name"]]

    inclusive, calls, self_time = defaultdict(float), Counter(), defaultdict(float)
    for s in spans:
        g = group(s)
        duration = s["end"] - s["start"]
        self_time[g] += duration - child_time[s["id"]]
        parent = s["parent"]
        while parent >= 0 and group(by_id[parent]) != g:
            parent = by_id[parent]["parent"]
        if parent < 0:  # outermost span of its group
            inclusive[g] += duration
            calls[g] += 1

    counts = header["counts"]
    raw = {
        "cli.self_s": self_time["cli"],
        "cli.output_bytes": output_bytes,
        "sequences.spec_from_json_s": inclusive["spec_from_json"],
        "sequences.materialize_s": inclusive["materialize"],
        "sequences.materialize_calls": calls["materialize"],
        "sequences.term_entries_calls": counts.get("sequences.term_entries", 0),
        "operators.build_bundle_s": inclusive["build_bundle"],
        "operators.build_bundle_calls": calls["build_bundle"],
        "operators.subspace_s": inclusive["subspace"],
        "operators.subspace_calls": calls["subspace"],
        "classify.classify_finite_s": inclusive["classify_finite"],
        "classify.diagnose_asymptotic_self_s": self_time["diagnose_asymptotic"],
        "forms.zero_closed_self_s": self_time["zero_closed"],
        "forms.infsup_self_s": self_time["infsup"],
        "reconstruct.duals_s": inclusive["duals"],
        "reconstruct.reconstruct_with_s": inclusive["reconstruct_with"],
        "reconstruct.reconstruct_with_calls": calls["reconstruct_with"],
        "scenarios.run_scenario_self_s": self_time["run_scenario"],
        "core.probe_series_s": inclusive["probe_series"],
        "core.probe_series_terms": counts.get("core.probe_series_terms", 0),
        "core.partial_sum_trend_calls": calls["partial_sum_trend"],
        "linalg.factorizations": calls["linalg"],
        "linalg.factorization_s": inclusive["linalg"],
        "linalg.factorized_elements": counts.get("linalg.elements", 0),
    }
    ops = header["ops"]
    units = dict(PER_LAYER)
    return {name: {"value": raw[name] / ops, "unit": units[name]}
            for name, _ in PER_LAYER}
