import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from stokes0d import (SingularMatrixError, TripletMatrix, build_case, compress,
                      factorize, solve)


def normwise_backward_error(a, x, b):
    """||Ax - b|| / (||A|| ||x|| + ||b||) in the infinity norm."""
    anorm = np.max(abs(a).sum(axis=1))
    return np.max(np.abs(a @ x - b)) / (anorm * np.max(np.abs(x)) + np.max(np.abs(b)))


def test_duplicate_entries_sum():
    t = TripletMatrix(2, 2)
    t.add(0, 0, 1.0)
    t.add(0, 0, 2.0)
    c = t.compress()
    assert c.to_dense()[0, 0] == 3.0
    assert len(c.values) == 1


def test_empty_matrix_matvec():
    c = compress(TripletMatrix(3, 3))
    assert np.array_equal(c.matvec(np.ones(3)), np.zeros(3))


def test_out_of_range_indices():
    t = TripletMatrix(2, 2)
    with pytest.raises(IndexError):
        t.add(2, 0, 1.0)
    with pytest.raises(IndexError):
        t.extend([0, 1], [0, 5], [1.0, 1.0])


def test_matvec_against_dense_oracle():
    rng = np.random.default_rng(42)
    n = 50
    t = TripletMatrix(n, n)
    dense = np.zeros((n, n))
    for _ in range(400):
        i, j = rng.integers(0, n, 2)
        v = rng.standard_normal()
        t.add(int(i), int(j), float(v))
        dense[i, j] += v
    c = t.compress()
    x = rng.standard_normal(n)
    assert np.max(np.abs(c.matvec(x) - dense @ x)) <= 1e-13 * np.max(np.abs(dense @ x))


def test_identity_and_permutation_solves():
    t = TripletMatrix(3, 3)
    t.extend([0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0])
    f = factorize(t.compress())
    b = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(solve(f, b), b)

    t = TripletMatrix(2, 2)
    t.extend([0, 1], [1, 0], [1.0, 1.0])   # requires pivoting
    f = factorize(t.compress())
    assert np.allclose(solve(f, np.array([1.0, 2.0])), [2.0, 1.0])


def test_residual_bound_random_system():
    rng = np.random.default_rng(7)
    n = 100
    dense = rng.standard_normal((n, n)) + n * np.eye(n)
    t = TripletMatrix(n, n)
    rows, cols = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    t.extend(rows, cols, dense)
    a = t.compress()
    x_star = rng.standard_normal(n)
    b = a.matvec(x_star)
    x = solve(factorize(a), b)
    anorm = np.max(np.abs(dense).sum(axis=1))
    bound = 1e-9 * (anorm * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert np.max(np.abs(a.matvec(x) - b)) <= bound
    assert np.max(np.abs(x - x_star)) <= 1e-9 * np.max(np.abs(x_star))


def test_factor_once_solve_many_deterministic():
    rng = np.random.default_rng(3)
    n = 40
    t = TripletMatrix(n, n)
    for _ in range(300):
        t.add(int(rng.integers(n)), int(rng.integers(n)), float(rng.standard_normal()))
    for i in range(n):
        t.add(i, i, 10.0)
    f = factorize(t.compress())
    b = rng.standard_normal(n)
    x1 = solve(f, b)
    x2 = solve(f, b)
    assert x1.tobytes() == x2.tobytes()


def test_singular_matrix_names_pivot():
    t = TripletMatrix(3, 3)
    t.extend([0, 2], [0, 2], [1.0, 4.0])   # row/col 1 empty
    with pytest.raises(SingularMatrixError) as err:
        factorize(t.compress())
    assert err.value.pivot == 1
    assert "pivot index 1" in str(err.value)


def test_singular_dense_duplicated_column():
    # structurally full but exactly singular: both columns identical
    t = TripletMatrix(2, 2)
    t.extend([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(SingularMatrixError) as err:
        factorize(t.compress())
    assert err.value.pivot == 1


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        factorize(compress(TripletMatrix(2, 3)))


def test_singular_pivot_in_callers_numbering():
    # chain 0-2-3-4 with row/col 1 empty; the symmetric ordering moves row 1
    t = TripletMatrix(5, 5)
    t.extend([0, 2, 3, 4], [0, 2, 3, 4], [4.0] * 4)
    t.extend([0, 2, 2, 3, 3, 4], [2, 0, 3, 2, 4, 3], [1.0] * 6)
    a = t.compress().to_scipy()
    perm = reverse_cuthill_mckee((abs(a) + abs(a.T)).tocsr(), symmetric_mode=True)
    assert perm[1] != 1
    with pytest.raises(SingularMatrixError) as err:
        factorize(a)
    assert err.value.pivot == 1


def test_tiny_diagonal_falls_back_to_partial_pivoting():
    # keeping the diagonal pivots of this matrix gives backward error 2e-4
    rng = np.random.default_rng(30)
    n = 6
    a = sp.random(n, n, density=0.2, random_state=rng, format="csc")
    a = (a + sp.diags(10.0 ** rng.uniform(-18, 0, n))).tocsc()
    b = rng.standard_normal(n)
    f = factorize(a)
    assert f.perm is None
    assert normwise_backward_error(a, f.solve(b), b) <= 1e-14


@pytest.fixture(scope="module", params=[1, 2, 3])
def stage1_solver_50x10(request):
    return build_case(request.param, nx=50, ny=10).system.step1_solver(0.01)


def test_stage1_keeps_symmetric_ordering(stage1_solver_50x10):
    f = stage1_solver_50x10.factorization
    assert f.perm is not None
    b = np.random.default_rng(1).standard_normal(f.n)
    assert normwise_backward_error(stage1_solver_50x10.matrix.to_scipy(), f.solve(b), b) <= 1e-14


def test_stage1_fill_below_default_ordering(stage1_solver_50x10):
    lu = stage1_solver_50x10.factorization._lu
    ref = spla.splu(stage1_solver_50x10.matrix.to_scipy().tocsc())
    assert lu.L.nnz + lu.U.nnz <= 0.75 * (ref.L.nnz + ref.U.nnz)
