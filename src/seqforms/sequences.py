"""Rule-based sequence specifications and their truncated materializations.

A SequenceSpec describes a sequence {xi_n} by a closed vocabulary of rules
(explicit columns, diagonal weights, finite differences, interleavings,
fixed patterns, operator images, scalings). Terms are produced on demand as
sparse (index, value) entries, so large truncations stay cheap for the
structured rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .core import CoeffVector
from .errors import SupportOverflow

__all__ = [
    "ScalarRule",
    "SequenceSpec",
    "ExplicitColumns",
    "DiagonalWeights",
    "FiniteDifference",
    "Interleave",
    "TriplePattern",
    "PairedDouble",
    "OperatorImage",
    "Scaled",
    "term",
    "materialize",
    "spec_from_json",
]

Entries = Tuple[np.ndarray, np.ndarray]

_EMPTY = (np.empty(0, dtype=int), np.empty(0, dtype=complex))


def _as_complex(x):
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(x[0], x[1])
    return complex(x)


@dataclass(frozen=True)
class ScalarRule:
    """n -> scalar, from the closed vocabulary {constant, n, 1/n, table}."""

    kind: str
    value: complex = 1.0
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in ("constant", "n", "1/n", "table"):
            raise ValueError(f"unknown scalar rule {self.kind!r}")
        if self.kind == "table":
            if not self.values:
                raise ValueError("table rule needs values")
            object.__setattr__(
                self, "values", tuple(_as_complex(v) for v in self.values)
            )
        object.__setattr__(self, "value", _as_complex(self.value))

    def __call__(self, n: int) -> complex:
        if self.kind == "constant":
            return self.value
        if self.kind == "n":
            return complex(n)
        if self.kind == "1/n":
            return 1.0 / n
        if n > len(self.values):
            raise SupportOverflow(f"table rule has no entry for n={n}")
        return self.values[n - 1]

    def to_json(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "constant":
            d["value"] = _json_scalar(self.value)
        if self.kind == "table":
            d["values"] = [_json_scalar(v) for v in self.values]
        return d

    @staticmethod
    def from_json(d) -> "ScalarRule":
        if isinstance(d, str):
            d = {"kind": d}
        return ScalarRule(
            kind=d["kind"],
            value=d.get("value", 1.0),
            values=tuple(d["values"]) if "values" in d else None,
        )


def _json_scalar(z: complex):
    z = complex(z)
    if z.imag == 0:
        return z.real
    return [z.real, z.imag]


class SequenceSpec:
    """Base class for sequence rules. Indexing is 1-based throughout."""

    #: number of sequence members consumed per basis index in ladder probes
    arity = 1
    tag = None

    def term_entries(self, n: int) -> Entries:
        """Sparse support of xi_n as (0-based indices, values)."""
        raise NotImplementedError

    def materialize(self, dim: int, count: int) -> np.ndarray:
        """Dense dim x count matrix whose column n is xi_n."""
        X = np.zeros((dim, count), dtype=complex)
        for n in range(1, count + 1):
            idx, val = self.term_entries(n)
            self._check_support(idx, val, dim, n)
            X[idx, n - 1] = val
        return X

    def materialize_sparse(self, dim: int, count: int) -> sp.csc_matrix:
        rows, cols, data = [], [], []
        for n in range(1, count + 1):
            idx, val = self.term_entries(n)
            self._check_support(idx, val, dim, n)
            rows.extend(idx.tolist())
            cols.extend([n - 1] * len(idx))
            data.extend(val.tolist())
        return sp.csc_matrix(
            (np.asarray(data, dtype=complex), (rows, cols)), shape=(dim, count)
        )

    @staticmethod
    def _check_support(idx, val, dim, n):
        live = idx[np.abs(val) > 0]
        if live.size and live.max() >= dim:
            raise SupportOverflow(
                f"term {n} has support up to coordinate {int(live.max()) + 1}, "
                f"beyond dim={dim}"
            )

    def to_json(self) -> dict:
        return {"rule": self.tag, "params": self._params_json()}

    def _params_json(self) -> dict:
        return {}


@dataclass(frozen=True)
class ExplicitColumns(SequenceSpec):
    matrix: np.ndarray
    tag = "explicit"

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=complex))
        )

    def term_entries(self, n: int) -> Entries:
        if n > self.matrix.shape[1]:
            raise SupportOverflow(
                f"matrix has {self.matrix.shape[1]} columns, n={n}"
            )
        col = self.matrix[:, n - 1]
        idx = np.nonzero(col)[0]
        return idx, col[idx]

    def _params_json(self):
        return {"matrix": [[_json_scalar(v) for v in row] for row in self.matrix]}


@dataclass(frozen=True)
class DiagonalWeights(SequenceSpec):
    """xi_n = alpha_n e_n."""

    weight: ScalarRule
    tag = "diagonal"

    def term_entries(self, n: int) -> Entries:
        w = self.weight(n)
        if w == 0:
            return _EMPTY
        return np.array([n - 1]), np.array([w], dtype=complex)

    def _params_json(self):
        return {"weight": self.weight.to_json()}


@dataclass(frozen=True)
class FiniteDifference(SequenceSpec):
    """xi_1 = e_1 and xi_n = n (e_n - e_{n-1}) for n >= 2."""

    tag = "finite_difference"

    def term_entries(self, n: int) -> Entries:
        if n == 1:
            return np.array([0]), np.array([1.0 + 0j])
        return (
            np.array([n - 2, n - 1]),
            np.array([-float(n), float(n)], dtype=complex),
        )


@dataclass(frozen=True)
class Interleave(SequenceSpec):
    """{a_1, b_1, a_2, b_2, ...}."""

    first: SequenceSpec
    second: SequenceSpec
    tag = "interleave"
    arity = 2

    def term_entries(self, n: int) -> Entries:
        if n % 2 == 1:
            return self.first.term_entries((n + 1) // 2)
        return self.second.term_entries(n // 2)

    def _params_json(self):
        return {"first": self.first.to_json(), "second": self.second.to_json()}


@dataclass(frozen=True)
class TriplePattern(SequenceSpec):
    """kind "xi": {e_1, e_1, -e_1, e_2, e_1, -e_1, e_3, ...};
    kind "eta": {e_1, e_1, e_1, e_2, e_2, e_2, ...}."""

    kind: str
    tag = "triple"
    arity = 3

    def __post_init__(self):
        if self.kind not in ("xi", "eta"):
            raise ValueError("TriplePattern kind must be 'xi' or 'eta'")

    def term_entries(self, n: int) -> Entries:
        group = (n + 2) // 3
        pos = (n - 1) % 3
        if self.kind == "eta" or pos == 0:
            return np.array([group - 1]), np.array([1.0 + 0j])
        sign = 1.0 if pos == 1 else -1.0
        return np.array([0]), np.array([sign + 0j])

    def _params_json(self):
        return {"kind": self.kind}


@dataclass(frozen=True)
class PairedDouble(SequenceSpec):
    """kind "xi": {e_1, e_1, e_2, 2 e_2, ..., e_n, n e_n, ...};
    kind "eta": {e_1, 0, e_2, 0, ...}."""

    kind: str
    tag = "paired_double"
    arity = 2

    def __post_init__(self):
        if self.kind not in ("xi", "eta"):
            raise ValueError("PairedDouble kind must be 'xi' or 'eta'")

    def term_entries(self, n: int) -> Entries:
        if n % 2 == 1:
            k = (n + 1) // 2
            return np.array([k - 1]), np.array([1.0 + 0j])
        k = n // 2
        if self.kind == "eta":
            return _EMPTY
        return np.array([k - 1]), np.array([complex(k)])

    def _params_json(self):
        return {"kind": self.kind}


@dataclass(frozen=True)
class OperatorImage(ExplicitColumns):
    """xi_n = V e_n, i.e. xi_n is column n of the matrix V."""

    tag = "operator_image"


@dataclass(frozen=True)
class Scaled(SequenceSpec):
    """xi_n = beta_n * base_n."""

    base: SequenceSpec
    factor: ScalarRule
    tag = "scaled"

    @property
    def arity(self):  # noqa: D401 - passthrough
        return self.base.arity

    def term_entries(self, n: int) -> Entries:
        idx, val = self.base.term_entries(n)
        b = self.factor(n)
        if b == 0:
            return _EMPTY
        return idx, val * b

    def _params_json(self):
        return {"base": self.base.to_json(), "factor": self.factor.to_json()}


def term(spec: SequenceSpec, n: int, dim: int) -> CoeffVector:
    if n < 1:
        raise ValueError("sequence indices start at 1")
    idx, val = spec.term_entries(n)
    spec._check_support(idx, val, dim, n)
    out = np.zeros(dim, dtype=complex)
    out[idx] = val
    return CoeffVector(out)


def materialize(spec: SequenceSpec, dim: int, count: int) -> np.ndarray:
    return spec.materialize(dim, count)


def spec_from_json(d: dict) -> SequenceSpec:
    """Build a SequenceSpec from {"rule": tag, "params": {...}}."""
    rule = d["rule"]
    p = d.get("params", {})
    if rule == "explicit":
        return ExplicitColumns(_matrix_from_json(p["matrix"]))
    if rule == "diagonal":
        return DiagonalWeights(ScalarRule.from_json(p["weight"]))
    if rule == "finite_difference":
        return FiniteDifference()
    if rule == "interleave":
        return Interleave(spec_from_json(p["first"]), spec_from_json(p["second"]))
    if rule == "triple":
        return TriplePattern(p["kind"])
    if rule == "paired_double":
        return PairedDouble(p["kind"])
    if rule == "operator_image":
        return OperatorImage(_matrix_from_json(p["matrix"]))
    if rule == "scaled":
        return Scaled(spec_from_json(p["base"]), ScalarRule.from_json(p["factor"]))
    raise ValueError(f"unknown sequence rule {rule!r}")


def _matrix_from_json(rows: Sequence[Sequence]) -> np.ndarray:
    """Rows of [re, im] pairs or of real entries are converted as one array;
    any other mix entry by entry. Non-finite entries are rejected."""
    try:
        a = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        a = np.empty(0)
    if a.ndim == 3 and a.shape[2] == 2:
        M = a.view(complex)[..., 0]
    elif a.ndim == 2:
        M = a.astype(complex)
    else:
        M = np.array([[_as_complex(v) for v in row] for row in rows], dtype=complex)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite numbers")
    return M
