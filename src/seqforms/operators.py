"""Analysis and frame matrices, the rank cutoff and subspace geometry.

Conventions: for columns xi_n (dim x count matrix X), the analysis matrix is
C = X^H, so (C f)_n = <f, xi_n> including the complex conjugation; the
synthesis matrix is C^H = X, the columns themselves, and the frame matrix is
S = X C. Rank decisions use a singular-value cutoff relative to
the largest singular value. A basis of a subspace is a plain array with
orthonormal columns; its rows are the ambient space. Verdicts about a
sequence (frame bounds, completeness, the class) live in classify.

The values-only SVD, the inverse and the Cholesky solve of a bundle's
operators, of the associated matrix and of the frame matrix take the
matrix's independent blocks (blocks_of; a bundle finds those of its C once)
and factorize block by block when it splits; range bases and the subspace
geometry below stay dense. A bundle whose C splits keeps one CSR copy of
its columns and the inverse of a split matrix is CSR, so matmul takes its
operands as they come.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .core import DEFAULT_TOL, Tolerances
from .errors import DenseTooLarge, DimensionMismatch
from .sequences import SequenceSpec

__all__ = [
    "OperatorBundle",
    "rank_cutoff",
    "blocks_of",
    "svdvals",
    "inv",
    "cho_solve",
    "matmul",
    "build_bundle",
    "bundle_from_columns",
    "range_basis",
    "complement_basis",
    "cosines_and_angles",
    "principal_angles",
    "direct_sum_check",
]


def rank_cutoff(
    top: float, tol: Tolerances = DEFAULT_TOL, squared: bool = False
) -> float:
    """The value at or below which a singular value counts as zero, for the
    largest singular value top; squared, the same cutoff on eigenvalues of
    S or G, whose top is sigma_max^2."""
    return (tol.rank_tol**2 if squared else tol.rank_tol) * top


def _rank(s: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of the descending singular values s above rank_tol * s[0]."""
    smax = float(s[0]) if s.size else 0.0
    return int(np.count_nonzero(s > rank_cutoff(smax, tol))) if smax > 0 else 0


# Below count * dim = 256^2 a dense factorization is cheaper than a look
# for structure (blocks in blocks_of, a band in classify.frame_spectrum): a
# complex SVD takes 13.5 ms at 256 x 256, 0.06 ms for a 64 x 64 diagonal,
# whose blocks take 0.23 ms to find (one BLAS thread).
BANDED_MIN_SIZE = 256 * 256


def blocks_of(M: np.ndarray) -> Optional[dict]:
    """The blocks of M grouped by shape, {(r, c): (rows, cols)}: row k of
    the k x r index array rows and of the k x c array cols picks block k.
    The blocks are the connected components of the nonzero pattern, rows
    and columns being the two sides of a bipartite graph (Pothen & Fan, ACM
    TOMS 1990), so a zero row is a 1 x 0 block and a zero column a 0 x 1
    one. None, and M is factorized whole, below BANDED_MIN_SIZE entries,
    with no zero entry, or with fewer than two blocks that hold entries."""
    m, n = M.shape
    if m * n < BANDED_MIN_SIZE:
        return None
    live = M != 0
    if np.count_nonzero(live) == m * n:
        return None
    rows, cols = np.divmod(np.flatnonzero(live), n)
    # rows are the vertices 0..m-1 and columns m..m+n-1, one edge per entry
    labels = _components(rows, cols + m, m + n)
    k = labels.max() + 1
    r, c = np.bincount(labels[:m], minlength=k), np.bincount(labels[m:], minlength=k)
    if np.count_nonzero(r * c) < 2:
        return None
    # indices of each block ascending, blocks in label order
    row_order = np.argsort(labels[:m], kind="stable")
    col_order = np.argsort(labels[m:], kind="stable")
    row_start, col_start = np.cumsum(r) - r, np.cumsum(c) - c
    shape = r * (c.max() + 1) + c  # one integer per block shape
    blocks = {}
    for key in np.unique(shape).tolist():
        ids = np.flatnonzero(shape == key)[:, None]
        nr, nc = int(r[ids[0, 0]]), int(c[ids[0, 0]])
        blocks[nr, nc] = (row_order[row_start[ids] + np.arange(nr)],
                          col_order[col_start[ids] + np.arange(nc)])
    return blocks


def _components(u: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """Connected component, numbered from 0, of each vertex of the graph
    with edges (u, v): union-find by hooking and pointer jumping."""
    parent = np.arange(size)
    while True:
        pu, pv = parent[u], parent[v]
        if np.array_equal(pu, pv):
            return np.unique(parent, return_inverse=True)[1]
        # every vertex points at a root: hook the larger root of each edge
        np.minimum.at(parent, np.maximum(pu, pv), np.minimum(pu, pv))
        while not np.array_equal(parent, parent[parent]):
            parent = parent[parent]


def _stack(M: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The blocks M[rows[k]][:, cols[k]] as one k x r x c array."""
    return M[rows[:, :, None], cols[:, None, :]]


# Each factorization below is the plain call on M when its blocks are None,
# else one batched call per block shape.


def svdvals(M: np.ndarray, blocks: Optional[dict]) -> np.ndarray:
    """The singular values of M, descending."""
    if blocks is None:
        return np.linalg.svd(M, compute_uv=False)
    vals = [np.linalg.svd(_stack(M, rows, cols), compute_uv=False).ravel()
            for (r, c), (rows, cols) in blocks.items() if r and c]
    vals = np.sort(np.concatenate(vals))[::-1]
    return np.concatenate([vals, np.zeros(min(M.shape) - vals.size)])


def inv(M: np.ndarray, blocks: Optional[dict]):
    """The inverse of M, a CSR matrix assembled from the block inverses when
    M splits; LinAlgError when M is singular."""
    if blocks is None:
        return np.linalg.inv(M)
    if any(r != c for r, c in blocks):
        raise np.linalg.LinAlgError("Singular matrix")
    # block k of M^-1 sits at rows cols[k] and columns rows[k]
    parts = [(np.linalg.inv(_stack(M, rows, cols)),
              *np.broadcast_arrays(cols[:, :, None], rows[:, None, :]))
             for rows, cols in blocks.values()]
    vals, i, j = (np.concatenate([a.ravel() for a in arrays]) for arrays in zip(*parts))
    return sp.csr_array((vals, (i, j)), M.shape)


def cho_solve(S: np.ndarray, B: np.ndarray, blocks: Optional[dict]) -> np.ndarray:
    """X with S X = B for a Hermitian positive definite S, by Cholesky:
    whole, scipy's cho_factor and cho_solve; per block, S = L L^H and
    X = L^-H L^-1 B. LinAlgError when S is not positive definite."""
    if blocks is None:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(S), B)
    # a Hermitian positive definite S has its blocks on the diagonal
    if not all(np.array_equal(rows, cols) for rows, cols in blocks.values()):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    out = np.zeros(B.shape, dtype=np.result_type(S, B, 1.0))
    for rows, cols in blocks.values():
        L_inv = np.linalg.inv(np.linalg.cholesky(_stack(S, rows, cols)))
        out[rows] = L_inv.conj().transpose(0, 2, 1) @ (L_inv @ B[rows])
    return out


def matmul(A, B) -> np.ndarray:
    """A @ B as a dense array, for dense or sparse operands."""
    out = A @ B
    return out.toarray() if sp.issparse(out) else out


def _csr(M: np.ndarray) -> sp.csr_array:
    live = M != 0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(live, axis=1))])
    return sp.csr_array((M[live], np.flatnonzero(live) % M.shape[1], indptr), M.shape)


@dataclass(frozen=True)
class OperatorBundle:
    """Materialized operators of one sequence at a fixed truncation.

    Only the columns are stored. The other operators and the singular
    values of C are computed on first use and cached, so a verdict that
    needs singular values alone never pays for singular vectors.
    """

    columns: np.ndarray  # dim x count, column n is xi_n

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    @cached_property
    def C(self) -> np.ndarray:
        return self.columns.conj().T

    @cached_property
    def blocks(self) -> Optional[dict]:
        """The blocks of C, found once; None when C is factorized whole."""
        return blocks_of(self.C)

    @cached_property
    def columns_op(self):
        """The columns as a product operand: one CSR copy when C splits."""
        return self.columns if self.blocks is None else _csr(self.columns)

    @cached_property
    def C_op(self):
        """C as a product operand: columns_op's conjugate transpose."""
        return self.C if self.blocks is None else self.columns_op.conj().T

    @cached_property
    def S(self) -> np.ndarray:
        return matmul(self.columns_op, self.C_op)

    @cached_property
    def singular_values(self) -> np.ndarray:
        """Singular values of C, descending, without singular vectors."""
        return svdvals(self.C, self.blocks)

    def rank(self, tol: Tolerances = DEFAULT_TOL) -> int:
        return _rank(self.singular_values, tol)

    def range_basis(self, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
        """Orthonormal columns spanning R(C): Q of a reduced QR when C has
        full column rank, the leading left singular vectors of a thin SVD
        only when C is rank-deficient."""
        r = self.rank(tol)
        if r == self.dim:
            return np.linalg.qr(self.C)[0]
        return np.linalg.svd(self.C, full_matrices=False)[0][:, :r]


def bundle_from_columns(X: np.ndarray) -> OperatorBundle:
    return OperatorBundle(np.atleast_2d(np.asarray(X, dtype=complex)))


# The largest count * dim that is materialized and factorized densely
# (256 MB of complex).
DENSE_MAX_SIZE = 4096 * 4096


def build_bundle(spec: SequenceSpec, dim: int, count: int) -> OperatorBundle:
    """The bundle of spec at dim x count; DenseTooLarge, before anything is
    materialized, when dim * count is above DENSE_MAX_SIZE."""
    if dim * count > DENSE_MAX_SIZE:
        raise DenseTooLarge(
            f"a {dim} x {count} truncation needs a dense factorization of "
            f"{dim * count} entries, above the cap of {DENSE_MAX_SIZE}",
            dim=dim, count=count, cap=DENSE_MAX_SIZE,
        )
    return bundle_from_columns(spec.materialize(dim, count))


# No report reads the four subspace helpers range_basis, complement_basis,
# principal_angles and direct_sum_check; they stay because the property
# tests use them as independent references and the benchmark's tracer wraps
# them by name.


def range_basis(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of M, by SVD with relative cutoff."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, : _rank(s, tol)]


def complement_basis(
    M: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the column space."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    U, s, _ = np.linalg.svd(M, full_matrices=True)
    return U[:, _rank(s, tol) :]


def _check_ambient(U: np.ndarray, W: np.ndarray) -> None:
    if U.shape[0] != W.shape[0]:
        raise DimensionMismatch(f"ambient dims differ: {U.shape[0]} vs {W.shape[0]}")


def cosines_and_angles(
    U: np.ndarray, W: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Principal angles between the spans of two bases: their cosines,
    descending, and the angles, ascending in [0, pi/2].

    A cosine within rounding of 1 cannot tell an angle below 1e-8 from 0, so
    every angle up to pi/4 comes from its sine instead: the length outside
    the larger subspace of the smaller one's principal vector (Knyazev &
    Argentati, SIAM J. Sci. Comput. 2002). When the larger subspace is the
    whole space every sine is 0 and no principal vectors are needed; else
    they come from the cosines' own SVD, so no second factorization is taken.
    """
    _check_ambient(U, W)
    if U.shape[1] == 0 or W.shape[1] == 0:
        return np.empty(0), np.empty(0)
    M = U.conj().T @ W
    u_smaller = U.shape[1] <= W.shape[1]
    big = W if u_smaller else U
    if big.shape[1] == U.shape[0]:
        cos = np.linalg.svd(M, compute_uv=False)
        sin = np.zeros_like(cos)
    else:
        Y, cos, Zh = np.linalg.svd(M, full_matrices=False)
        V = U @ Y if u_smaller else W @ Zh.conj().T
        sin = np.linalg.norm(V - big @ (big.conj().T @ V), axis=0)
    from_sin = np.arcsin(np.minimum(sin, 1.0))
    angles = np.where(cos**2 >= 0.5, from_sin, np.arccos(np.clip(cos, 0.0, 1.0)))
    return cos, np.sort(angles)


def principal_angles(U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Principal angles between two subspaces, ascending, in [0, pi/2]."""
    return cosines_and_angles(U, W)[1]


def _direct_sum_verdict(excess: int, half_tan: float, tol: Tolerances) -> str:
    """Direct-sum verdict on U (+) W from excess = dim U + dim W - ambient dim
    and, when excess is 0, half_tan = tan(phi/2) of the smallest principal
    angle phi between U and W (1 when one is trivial). That is sigma_min /
    sigma_max of the stacked bases [U W], whose singular values are
    sqrt(1 +- cos phi_i) and 1 (Bjorck & Golub, Math. Comp. 1973)."""
    if excess < 0:
        return "fails_span"
    if excess == 0 and half_tan > tol.rank_tol:
        return "holds"
    # overfull, or the pieces meet at an angle below the cutoff
    return "fails_intersection"


def direct_sum_check(
    U: np.ndarray, W: np.ndarray, tol: Tolerances = DEFAULT_TOL
) -> str:
    """Whether U and W decompose the ambient space as a direct sum, from
    their smallest principal angle (see _direct_sum_verdict).

    Returns "holds", "fails_intersection" or "fails_span".
    """
    _check_ambient(U, W)
    excess = U.shape[1] + W.shape[1] - U.shape[0]
    half_tan = 1.0
    if excess == 0 and U.shape[1] and W.shape[1]:
        half_tan = float(np.tan(principal_angles(U, W)[0] / 2))
    return _direct_sum_verdict(excess, half_tan, tol)
