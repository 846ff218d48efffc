import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stokes0d import SingularMatrixError, build_case, factorize
from stokes0d.params import params_for
from stokes0d.sparse import BACKWARD_ERROR_TOL, TINY_RHS, _factorize_on_diagonal


def normwise_backward_error(a, x, b):
    """||Ax - b|| / (||A|| ||x|| + ||b||) in the infinity norm."""
    anorm = np.max(abs(a).sum(axis=1))
    return np.max(np.abs(a @ x - b)) / (anorm * np.max(np.abs(x)) + np.max(np.abs(b)))


def test_identity_and_permutation_solves():
    f = factorize(sp.identity(3, format="csr"))
    b = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(f.solve(b), b)

    a = sp.csr_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(2, 2))   # requires pivoting
    f = factorize(a)
    assert np.allclose(f.solve(np.array([1.0, 2.0])), [2.0, 1.0])


def test_residual_bound_random_system():
    rng = np.random.default_rng(7)
    n = 100
    dense = rng.standard_normal((n, n)) + n * np.eye(n)
    a = sp.csr_matrix(dense)
    x_star = rng.standard_normal(n)
    b = a @ x_star
    x = factorize(a).solve(b)
    anorm = np.max(np.abs(dense).sum(axis=1))
    bound = 1e-9 * (anorm * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert np.max(np.abs(a @ x - b)) <= bound
    assert np.max(np.abs(x - x_star)) <= 1e-9 * np.max(np.abs(x_star))


def test_factor_once_solve_many_deterministic():
    rng = np.random.default_rng(3)
    n = 40
    rows, cols = rng.integers(n, size=(2, 300))
    a = sp.coo_matrix((rng.standard_normal(300), (rows, cols)), shape=(n, n))
    f = factorize(a + 10.0 * sp.identity(n))
    b = rng.standard_normal(n)
    x1 = f.solve(b)
    x2 = f.solve(b)
    assert x1.tobytes() == x2.tobytes()


def test_singular_matrix_names_pivot():
    a = sp.csr_matrix(([1.0, 4.0], ([0, 2], [0, 2])), shape=(3, 3))   # row/col 1 empty
    with pytest.raises(SingularMatrixError) as err:
        factorize(a)
    assert err.value.pivot == 1
    assert "pivot index 1" in str(err.value)


def test_singular_dense_duplicated_column():
    # structurally full but exactly singular: both columns identical
    with pytest.raises(SingularMatrixError) as err:
        factorize(sp.csr_matrix(np.ones((2, 2))))
    assert err.value.pivot == 1


@pytest.mark.parametrize("read_only", [False, True])
def test_factorize_leaves_the_callers_arrays_as_they_are(read_only):
    # duplicate and unsorted entries: [[2 + 1, 1], [4, 3]], summed and
    # sorted on a copy, never in the arrays the caller handed in
    arrays = (np.array([2.0, 1.0, 1.0, 3.0, 4.0]), np.array([0, 0, 1, 1, 0], dtype=np.int32),
              np.array([0, 3, 5], dtype=np.int32))
    for x in arrays:
        x.setflags(write=not read_only)
    before = [x.tobytes() for x in arrays]
    a = sp.csr_matrix(arrays, shape=(2, 2))
    x = factorize(a).solve(np.array([1.0, 2.0]))
    assert [v.tobytes() for v in arrays] == before
    assert [v.tobytes() for v in (a.data, a.indices, a.indptr)] == before
    assert np.allclose(x, np.linalg.solve([[3.0, 1.0], [4.0, 3.0]], [1.0, 2.0]), rtol=1e-14)


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        factorize(sp.csr_matrix((2, 3)))


def test_tiny_diagonal_falls_back_to_partial_pivoting():
    # keeping the diagonal pivots of this matrix gives backward error 2e-4
    rng = np.random.default_rng(30)
    n = 6
    a = sp.random(n, n, density=0.2, random_state=rng, format="csc")
    a = (a + sp.diags(10.0 ** rng.uniform(-18, 0, n))).tocsc()
    b = rng.standard_normal(n)
    lu, error = _factorize_on_diagonal(sp.csr_matrix(a))
    assert lu is None and error > BACKWARD_ERROR_TOL
    f = factorize(a)
    assert (f.path, f.check_backward_error) == ("colamd", error)
    assert normwise_backward_error(a, f.solve(b), b) <= 1e-14


def test_factorization_records_its_path_at_the_paper_parameters():
    f = build_case(1, nx=20, ny=4).system.step1_solver(0.01).factorization
    assert f.path == "diagonal"
    assert 0.0 <= f.check_backward_error <= BACKWARD_ERROR_TOL
    with pytest.raises(AttributeError):
        f.path = "colamd"       # telemetry, not an option


def test_factorization_records_the_fallback_off_the_paper_parameters():
    # density and viscosity scaled by 1e-3 at dt = 10: the diagonal pivots
    # fail their check, and COLAMD factors the matrix a second time
    params = dataclasses.replace(params_for(1), rho=1e-3, mu=1e-3)
    f = build_case(1, nx=20, ny=4, params=params).system.step1_solver(10.0).factorization
    assert f.path == "colamd"
    assert f.check_backward_error > BACKWARD_ERROR_TOL


@pytest.fixture(scope="module", params=[1, 2, 3])
def stage1_solver_50x10(request):
    return build_case(request.param, nx=50, ny=10).system.step1_solver(0.01)


STAGE1_DTS = (1e-3, 1e-2, 1e-1, 1.0, 10.0)


@pytest.mark.parametrize("example", [1, 2, 3])
def test_stage1_keeps_symmetric_ordering(example):
    # at the paper's parameters the diagonal pivots pass the check: no
    # fallback, the factors keep the matrix's own numbering
    meshes = [(20, 4, STAGE1_DTS), (50, 10, STAGE1_DTS)]
    if example == 1:
        meshes.append((100, 20, (1e-3, 10.0)))
    for nx, ny, dts in meshes:
        system = build_case(example, nx=nx, ny=ny).system
        for dt in dts:
            solver = system.step1_solver(dt)
            f = solver.factorization
            assert np.array_equal(f._lu.perm_c, np.arange(f.n))
            assert np.array_equal(f._lu.perm_r, np.arange(f.n))
            b = np.random.default_rng(1).standard_normal(f.n)
            assert normwise_backward_error(solver.matrix, f.solve(b), b) <= 1e-14


def test_stage1_fill_below_default_ordering(stage1_solver_50x10):
    lu = stage1_solver_50x10.factorization._lu
    ref = spla.splu(stage1_solver_50x10.matrix.tocsc())
    assert lu.L.nnz + lu.U.nnz <= 0.75 * (ref.L.nnz + ref.U.nnz)


def test_stage1_fill_of_benchmark_1():
    # nested dissection; reverse Cuthill-McKee with minimum degree gave 2 923 332
    lu = build_case(1, nx=100, ny=20).system.step1_solver(0.01).factorization._lu
    assert lu.L.nnz + lu.U.nnz <= 2_300_000


@pytest.fixture(scope="module", params=[1, 2, 3])
def stage1_lu_20x4(request):
    f = build_case(request.param, nx=20, ny=4).system.step1_solver(0.01).factorization
    return f, np.random.default_rng(request.param).standard_normal(f.n)


def test_tiny_rhs_solve_is_the_scaled_solve(stage1_lu_20x4):
    f, b = stage1_lu_20x4
    tiny = np.ldexp(b, -1000)
    assert np.max(np.abs(tiny)) < TINY_RHS
    assert f.solve(tiny).tobytes() == np.ldexp(f.solve(b), -1000).tobytes()
    # with subnormal entries: the solve of the exactly rescaled rhs, rounded once
    sub = np.ldexp(b, -1060)
    assert f.solve(sub).tobytes() == np.ldexp(f.solve(np.ldexp(sub, 1060)), -1060).tobytes()


def test_normal_rhs_solve_is_not_scaled(stage1_lu_20x4):
    f, b = stage1_lu_20x4
    assert f.solve(b).tobytes() == f._lu.solve(b, trans="T").tobytes()


def test_zero_and_nan_rhs(stage1_lu_20x4):
    f, _ = stage1_lu_20x4
    assert not np.any(f.solve(np.zeros(f.n)))
    assert np.all(np.isnan(f.solve(np.full(f.n, np.nan))))
