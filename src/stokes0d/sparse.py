"""Direct sparse LU solver for scipy sparse matrices, backed by SuperLU.

The time-stepping matrix is constant over a run, so the intended usage is
factor once, back-substitute every step.  The matrix is eliminated in its
own numbering: a fill-reducing order is the caller's to number it in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SingularMatrixError(RuntimeError):
    def __init__(self, pivot: int | None, n: int):
        self.pivot = pivot
        where = f"pivot index {pivot}" if pivot is not None else "pivot index unknown"
        super().__init__(f"singular {n}x{n} matrix in LU factorization ({where})")


def _locate_zero_pivot(a: sp.csr_matrix) -> int | None:
    """Best-effort pivot diagnosis after a failed factorization."""
    n = a.shape[0]
    nnz_row = np.diff(a.indptr)
    empty = np.nonzero(nnz_row == 0)[0]
    if len(empty):
        return int(empty[0])
    if n <= 2048:
        import scipy.linalg as sla
        _, _, u = sla.lu(a.toarray())
        d = np.abs(np.diag(u))
        tol = max(a.shape) * np.finfo(float).eps * (d.max() if d.max() > 0 else 1.0)
        small = np.nonzero(d <= tol)[0]
        if len(small):
            return int(small[0])
    return None


@dataclass(frozen=True, eq=False)
class LUFactorization:
    """Immutable LU factors; concurrent solves are safe.

    The factors are those of the transpose of A, and `solve` runs SuperLU's
    transposed substitutions on them.  `path` tells which factorization
    `factorize` kept, "diagonal" or "colamd", and `check_backward_error`
    the backward error of the diagonal-pivot attempt's check solve (None
    where that attempt failed outright).
    """
    _lu: spla.SuperLU
    n: int
    path: str
    check_backward_error: float | None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs length {rhs.shape[0]} != system size {self.n}")
        return apply_in_range(lambda b: self._lu.solve(b, trans="T"), rhs)


def _backward_error(a: sp.csr_matrix, x: np.ndarray, b: np.ndarray) -> float:
    """Componentwise backward error max_i |Ax - b|_i / (|A||x| + |b|)_i
    (Oettli-Prager): the smallest relative change of the entries of A and b
    for which x is an exact solution.  |A| shares the index arrays of A, a
    canonical CSR matrix, so the check copies only its values."""
    abs_a = sp.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)
    return float(np.max(np.abs(a @ x - b) / (abs_a @ np.abs(x) + np.abs(b))))


# Above this backward error on the check solve, the diagonal-pivot factors are
# dropped for a partial-pivoting factorization.  On the stage-1 systems of the
# three benchmarks in nested-dissection order (20x4 to 200x40, dt 1e-3 to 10)
# the check reads at most 4.3e-15.  With density and viscosity scaled by 1e-3
# to 1e3 and dt from 1e-4 to 1e3 (20x4) it reads up to 8e-13, and wherever the
# stage-1 energy identity of the diagonal-pivot solution was off by more than
# 1e-9 (up to 2e-7) it read at least 7e-14: large pressures weight the
# residual left in the continuity rows.
BACKWARD_ERROR_TOL = 2e-14

# A vector whose largest entry lies below this is scaled by a power of two to
# a largest entry in [0.5, 1) before a linear map is applied (`apply_in_range`)
# and the result is scaled back.  The scaling is exact, so the result has the
# same bits as the unscaled map wherever that stays in the normal range;
# without it, solves and sparse products run in subnormal arithmetic once an
# unforced state has decayed that far (benchmark 1 at dt = 10, 100x20: 56 ms
# per solve instead of 2.4 ms, 11.4 ms per mass product instead of 0.19 ms).
TINY_RHS = 2.0 ** -500


def apply_in_range(apply, v: np.ndarray) -> np.ndarray:
    """apply(v) of a linear map `apply`, run on v scaled into range when its
    largest entry lies below TINY_RHS; a NaN vector is applied as it is."""
    top = np.abs(v).max()
    if 0.0 < top < TINY_RHS:
        k = int(np.frexp(top)[1])
        return np.ldexp(apply(np.ldexp(v, -k)), k)
    return apply(v)


def _factorize_on_diagonal(a: sp.csr_matrix):
    """LU of the transpose of A with the pivots taken on the diagonal, in
    A's own numbering, whenever they are nonzero.

    That suits matrices with a symmetric pattern such as the stage-1
    saddle-point system but can be unstable on others, so one solve with a
    fixed solution checks the factors.  Returns the SuperLU object, or None
    if the factorization fails or the check's backward error exceeds
    BACKWARD_ERROR_TOL, and that backward error (None if there was no check).
    """
    n = a.shape[0]
    if n == 0:
        return None, None
    try:
        lu = spla.splu(a.T, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError:
        return None, None
    b = a @ np.random.default_rng(0).standard_normal(n)
    error = _backward_error(a, lu.solve(b, trans="T"), b)
    return (lu if error <= BACKWARD_ERROR_TOL else None), error


def factorize(a) -> LUFactorization:
    """Sparse LU of a square matrix, factor once and solve many times.

    Diagonal pivots in the matrix's own numbering are tried first, and
    COLAMD with partial pivoting (scipy's default) is the fallback when they
    fail their check.  Pivot indices in SingularMatrixError refer to `a`,
    whose arrays are never written: a copy is brought to canonical form.
    """
    a = sp.csr_matrix(a)
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    nr, nc = a.shape
    if nr != nc:
        raise ValueError(f"matrix must be square, got {nr}x{nc}")
    lu, error = _factorize_on_diagonal(a)
    if lu is not None:
        return LUFactorization(lu, nr, "diagonal", error)
    try:
        lu = spla.splu(a.T)
    except RuntimeError as err:
        if "singular" in str(err).lower():
            raise SingularMatrixError(_locate_zero_pivot(a), nr) from err
        raise
    return LUFactorization(lu, nr, "colamd", error)
