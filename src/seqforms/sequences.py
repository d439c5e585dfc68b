"""Rule-based sequence specifications and their truncated materializations.

A SequenceSpec describes a sequence {xi_n} by a closed vocabulary of rules
(explicit columns, which are also the operator images V e_n, diagonal
weights, finite differences, interleavings, fixed patterns, scalings). Each
rule produces the supports of a whole batch of members at once as COO
arrays, so large truncations stay cheap for the structured rules. A
truncation is materialized in float64 exactly when all its entries are real,
else in complex128, and every operator built from it keeps that dtype.
"""

from __future__ import annotations

import array
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import sp
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
    "Scaled",
    "materialize",
    "spec_from_json",
]

Coo = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _as_complex(x) -> complex:
    """A number, or an [re, im] pair of real numbers; TypeError for anything
    else, a string included."""
    if isinstance(x, (list, tuple)) and len(x) == 2:
        if all(isinstance(v, numbers.Real) for v in x):
            return complex(x[0], x[1])
    elif isinstance(x, numbers.Number):
        return complex(x)
    raise TypeError(f"expected a number or an [re, im] pair, got {x!r}")


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
        if not all(map(np.isfinite, (self.value, *(self.values or ())))):
            raise ValueError("scalar rule values must be finite numbers")

    def __call__(self, n) -> np.ndarray:
        """The scalars at the 1-based index or int array of indices n:
        float64 when the rule's values are real, else complex128."""
        n = np.asarray(n)
        if self.kind == "n":
            return n.astype(float)
        if self.kind == "1/n":
            return 1.0 / n
        values = np.array([self.value] if self.kind == "constant" else self.values)
        if not values.imag.any():
            values = values.real
        if self.kind == "constant":
            return np.full(n.shape, values[0])
        over = n[n > len(values)]
        if over.size:
            raise SupportOverflow(f"table rule has no entry for n={over.min()}")
        return values[n - 1]

    @staticmethod
    def from_json(d) -> "ScalarRule":
        if isinstance(d, str):
            d = {"kind": d}
        return ScalarRule(
            kind=d["kind"],
            value=d.get("value", 1.0),
            values=tuple(d["values"]) if "values" in d else None,
        )


class SequenceSpec:
    """Base class for sequence rules. Indexing is 1-based throughout."""

    #: number of sequence members consumed per basis index in ladder probes
    arity = 1

    def entries(self, n: np.ndarray) -> Coo:
        """Supports of the members xi_n for a 1-D int array n of 1-based
        indices, as COO arrays (rows, cols, vals): rows are 0-based
        coordinates, cols are positions into n, vals are float64 or
        complex128."""
        raise NotImplementedError

    def _coo(self, n: np.ndarray, dim: int) -> Coo:
        """The nonzero entries of the members n, checked to fit in dim: real
        (float64) when every imaginary part is 0, else complex."""
        rows, cols, vals = self.entries(n)
        live = vals != 0
        # + 0 turns a -0 part into +0, as summing into sparse storage does
        rows, cols, vals = rows[live], cols[live], vals[live] + 0
        if np.iscomplexobj(vals) and not vals.imag.any():
            vals = vals.real
        over = rows >= dim
        if over.any():
            first = cols[over].min()
            raise SupportOverflow(
                f"term {n[first]} has support up to coordinate "
                f"{rows[cols == first].max() + 1}, beyond dim={dim}"
            )
        return rows, cols, vals

    def full(self, dim: int, count: int) -> bool:
        """Whether the rule knows, without materializing them, that the
        dim x count entries are all nonzero: only an explicit matrix does."""
        return False

    def materialize(self, dim: int, count: int) -> np.ndarray:
        """Dense dim x count matrix whose column n is xi_n: float64 when
        every entry is real, else complex128."""
        rows, cols, vals = self._coo(np.arange(1, count + 1), dim)
        X = np.zeros((dim, count), dtype=vals.dtype)
        X[rows, cols] = vals
        return X

    def materialize_sparse(self, dim: int, count: int) -> sp.csc_matrix:
        """The CSC matrix of materialize, in the same dtype."""
        rows, cols, vals = self._coo(np.arange(1, count + 1), dim)
        return sp.csc_matrix((vals, (rows, cols)), shape=(dim, count))


@dataclass(frozen=True)
class ExplicitColumns(SequenceSpec):
    """xi_n = V e_n, i.e. xi_n is column n of the matrix V."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", np.atleast_2d(np.asarray(self.matrix, dtype=complex))
        )

    def entries(self, n: np.ndarray) -> Coo:
        over = n[n > self.matrix.shape[1]]
        if over.size:
            raise SupportOverflow(
                f"matrix has {self.matrix.shape[1]} columns, n={over.min()}"
            )
        rows, cols = np.nonzero(self.matrix[:, n - 1])
        return rows, cols, self.matrix[rows, n[cols] - 1]

    def full(self, dim: int, count: int) -> bool:
        return dim <= self.matrix.shape[0] and bool(self.matrix[:dim, :count].all())

    def materialize(self, dim: int, count: int) -> np.ndarray:
        """The first count columns cut or zero-padded to dim rows, -0 parts
        made +0 and real when every imaginary part is 0: the COO path's
        matrix and SupportOverflow, without its scatter."""
        if count > self.matrix.shape[1] or self.matrix[dim:, :count].any():
            self._coo(np.arange(1, count + 1), dim)  # raises
        stored = self.matrix[:dim, :count] + 0
        stored = stored if stored.imag.any() else stored.real
        X = np.zeros((dim, count), dtype=stored.dtype)
        X[: stored.shape[0]] = stored
        return X


@dataclass(frozen=True)
class DiagonalWeights(SequenceSpec):
    """xi_n = alpha_n e_n."""

    weight: ScalarRule

    def entries(self, n: np.ndarray) -> Coo:
        return n - 1, np.arange(n.size), self.weight(n)


@dataclass(frozen=True)
class FiniteDifference(SequenceSpec):
    """xi_1 = e_1 and xi_n = n (e_n - e_{n-1}) for n >= 2."""

    def entries(self, n: np.ndarray) -> Coo:
        tail = np.flatnonzero(n > 1)
        rows = np.concatenate([n - 1, n[tail] - 2])
        cols = np.concatenate([np.arange(n.size), tail])
        return rows, cols, np.concatenate([n, -n[tail]]).astype(float)


@dataclass(frozen=True)
class Interleave(SequenceSpec):
    """{a_1, b_1, a_2, b_2, ...}."""

    first: SequenceSpec
    second: SequenceSpec

    @property
    def arity(self):
        """Members per basis index: the parts alternate, and the one of
        smaller arity must reach every index."""
        return 2 * min(self.first.arity, self.second.arity)

    def entries(self, n: np.ndarray) -> Coo:
        odd = np.flatnonzero(n % 2 == 1)
        even = np.flatnonzero(n % 2 == 0)
        r1, c1, v1 = self.first.entries((n[odd] + 1) // 2)
        r2, c2, v2 = self.second.entries(n[even] // 2)
        return (
            np.concatenate([r1, r2]),
            np.concatenate([odd[c1], even[c2]]),
            np.concatenate([v1, v2]),
        )


@dataclass(frozen=True)
class TriplePattern(SequenceSpec):
    """kind "xi": {e_1, e_1, -e_1, e_2, e_1, -e_1, e_3, ...};
    kind "eta": {e_1, e_1, e_1, e_2, e_2, e_2, ...}."""

    kind: str
    arity = 3

    def __post_init__(self):
        if self.kind not in ("xi", "eta"):
            raise ValueError("TriplePattern kind must be 'xi' or 'eta'")

    def entries(self, n: np.ndarray) -> Coo:
        group = (n + 2) // 3
        pos = (n - 1) % 3
        if self.kind == "eta":
            return group - 1, np.arange(n.size), np.ones(n.size)
        # group k of xi is (e_k, e_1, -e_1)
        rows = np.where(pos == 0, group - 1, 0)
        return rows, np.arange(n.size), np.where(pos == 2, -1.0, 1.0)


@dataclass(frozen=True)
class PairedDouble(SequenceSpec):
    """kind "xi": {e_1, e_1, e_2, 2 e_2, ..., e_n, n e_n, ...};
    kind "eta": {e_1, 0, e_2, 0, ...}."""

    kind: str
    arity = 2

    def __post_init__(self):
        if self.kind not in ("xi", "eta"):
            raise ValueError("PairedDouble kind must be 'xi' or 'eta'")

    def entries(self, n: np.ndarray) -> Coo:
        k = (n + 1) // 2
        second = k if self.kind == "xi" else 0
        vals = np.where(n % 2 == 1, 1, second).astype(float)
        return k - 1, np.arange(n.size), vals


@dataclass(frozen=True)
class Scaled(SequenceSpec):
    """xi_n = beta_n * base_n."""

    base: SequenceSpec
    factor: ScalarRule

    @property
    def arity(self):  # noqa: D401 - passthrough
        return self.base.arity

    def entries(self, n: np.ndarray) -> Coo:
        rows, cols, vals = self.base.entries(n)
        return rows, cols, vals * self.factor(n)[cols]


def materialize(spec: SequenceSpec, dim: int, count: int) -> np.ndarray:
    return spec.materialize(dim, count)


def spec_from_json(d: dict) -> SequenceSpec:
    """Build a SequenceSpec from {"rule": tag, "params": {...}}."""
    rule = d["rule"]
    p = d.get("params", {})
    if rule in ("explicit", "operator_image"):  # xi_n = V e_n is column n of V
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
    if rule == "scaled":
        return Scaled(spec_from_json(p["base"]), ScalarRule.from_json(p["factor"]))
    raise ValueError(f"unknown sequence rule {rule!r}")


def _matrix_from_json(rows: Sequence[Sequence]) -> np.ndarray:
    """Rows of [re, im] pairs or of real entries are read as one flat float
    array; any other mix entry by entry. Non-finite entries are rejected."""
    M = _uniform_matrix(rows)
    if M is None:
        if len(set(map(len, rows))) > 1:
            raise ValueError("matrix rows must all have the same length")
        M = np.array([[_as_complex(v) for v in row] for row in rows], dtype=complex)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite numbers")
    return M


def _uniform_matrix(rows: Sequence[Sequence]) -> Optional[np.ndarray]:
    """The matrix of nonempty rows of one length, every entry an [re, im]
    pair (when the first is) or every entry a real number; None otherwise.
    The shape is checked first, so the entries can be read list by list."""
    try:
        widths = set(map(len, rows))
        if len(widths) != 1 or 0 in widths:
            return None
        shape = (len(rows), widths.pop())
        if not isinstance(rows[0][0], (list, tuple)):
            return _floats(rows).reshape(shape).astype(complex)
        entries = []
        any(map(entries.extend, rows))
        if set(map(len, entries)) != {2}:
            return None
        return _floats(entries).view(complex).reshape(shape)
    except (TypeError, ValueError):
        return None


def _floats(lists: Sequence[list]) -> np.ndarray:
    """The numbers in lists as float64; TypeError for a string, unlike
    np.fromiter, which parses a numeric one."""
    flat = array.array("d")
    any(map(flat.fromlist, lists))
    return np.frombuffer(flat)
