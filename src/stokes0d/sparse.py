"""Direct sparse LU solver for scipy sparse matrices, backed by SuperLU.

The time-stepping matrix is constant over a run, so the intended usage is
factor once, back-substitute every step.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee


class SingularMatrixError(RuntimeError):
    def __init__(self, pivot: int | None, n: int):
        self.pivot = pivot
        where = f"pivot index {pivot}" if pivot is not None else "pivot index unknown"
        super().__init__(f"singular {n}x{n} matrix in LU factorization ({where})")


def _locate_zero_pivot(a: sp.csc_matrix) -> int | None:
    """Best-effort pivot diagnosis after a failed factorization."""
    n = a.shape[0]
    nnz_row = np.diff(a.tocsr().indptr)
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


class LUFactorization:
    """Immutable LU factors; concurrent solves are safe.

    With a permutation `perm`, the factors are those of A[perm][:, perm]
    and `solve` permutes the right-hand side in and the solution back out.
    """

    def __init__(self, splu_obj, n: int, perm: np.ndarray | None = None):
        self._lu = splu_obj
        self.n = n
        self.perm = perm

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.n:
            raise ValueError(f"rhs length {rhs.shape[0]} != system size {self.n}")
        top = np.abs(rhs).max()
        if 0.0 < top < TINY_RHS:
            k = int(np.frexp(top)[1])
            return np.ldexp(_permuted_solve(self._lu, self.perm, np.ldexp(rhs, -k)), k)
        return _permuted_solve(self._lu, self.perm, rhs)


def _permuted_solve(lu, perm, rhs: np.ndarray) -> np.ndarray:
    if perm is None:
        return lu.solve(rhs)
    x = np.empty_like(rhs)
    x[perm] = lu.solve(rhs[perm])
    return x


def _backward_error(a, x: np.ndarray, b: np.ndarray) -> float:
    """Componentwise backward error max_i |Ax - b|_i / (|A||x| + |b|)_i
    (Oettli-Prager): the smallest relative change of the entries of A and b
    for which x is an exact solution."""
    return float(np.max(np.abs(a @ x - b) / (abs(a) @ np.abs(x) + np.abs(b))))


# Above this backward error on the check solve, the diagonal-pivot factors are
# dropped for a partial-pivoting factorization.  On the stage-1 systems of the
# three benchmarks (100x20 and 200x40, dt 1e-3 to 10) the check reads at most
# 2e-12.  With density and viscosity scaled down by up to 1e3 and dt up to 1e3
# it reads up to 1e-7, and above 3e-11 the stage-1 energy identity of the
# diagonal-pivot solution was off by up to 2e-7 (1e-12 with partial
# pivoting): large pressures weight the residual left in the continuity rows.
BACKWARD_ERROR_TOL = 3e-11

# A right-hand side whose largest entry lies below this is scaled by a power
# of two to a largest entry in [0.5, 1) before the solve, and the solution is
# scaled back.  The scaling is exact, so the solution has the same bits as the
# unscaled solve wherever that one stays in the normal range; without it, the
# substitutions run in subnormal arithmetic once the state of an unforced run
# has decayed that far (benchmark 1 at dt = 10, 100x20: 56 ms per solve
# instead of 2.4 ms).
TINY_RHS = 2.0 ** -500


def _factorize_symmetric(a: sp.csc_matrix) -> LUFactorization | None:
    """Minimum degree on A+A^T after a reverse Cuthill-McKee renumbering,
    keeping the diagonal pivot whenever it is nonzero.

    That suits matrices with a symmetric pattern such as the stage-1
    saddle-point system but can be unstable on others, so one solve with a
    fixed solution checks the factors.  Returns None if the factorization
    fails or the check's backward error exceeds BACKWARD_ERROR_TOL.
    """
    n = a.shape[0]
    if n == 0:
        return None
    perm = reverse_cuthill_mckee((abs(a) + abs(a.T)).tocsr(), symmetric_mode=True)
    try:
        lu = spla.splu(a[perm][:, perm].tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError:
        return None
    b = a @ np.random.default_rng(0).standard_normal(n)
    if _backward_error(a, _permuted_solve(lu, perm, b), b) <= BACKWARD_ERROR_TOL:
        return LUFactorization(lu, n, perm)
    return None


def factorize(a) -> LUFactorization:
    """Sparse LU of a square matrix, factor once and solve many times.

    Tries the symmetric ordering with diagonal pivots first and falls back to
    COLAMD with partial pivoting (scipy's default) when that fails its check.
    Pivot indices in SingularMatrixError refer to `a` as given.
    """
    a = sp.csc_matrix(a)
    nr, nc = a.shape
    if nr != nc:
        raise ValueError(f"matrix must be square, got {nr}x{nc}")
    f = _factorize_symmetric(a)
    if f is not None:
        return f
    try:
        lu = spla.splu(a)
    except RuntimeError as err:
        if "singular" in str(err).lower():
            raise SingularMatrixError(_locate_zero_pivot(a), nr) from err
        raise
    return LUFactorization(lu, nr)
