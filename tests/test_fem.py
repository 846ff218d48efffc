from functools import partial

import numpy as np
import pytest

from stokes0d import (RectDomain, TimeSeparable, assemble_body_force, assemble_operators,
                      build_rect_mesh, build_space, exact_for, external,
                      interface, interpolate_pressure, interpolate_velocity, wall)
from stokes0d import fem
from stokes0d.fem import boundary_flux_vector
from stokes0d.quadrature import edge_rule, triangle_rule


def channel_layout():
    return {"left": external(), "right": interface(1, 1, 1),
            "top": wall(), "bottom": wall()}


def make(nx, ny, L=10.0, H=2.0):
    mesh = build_rect_mesh(RectDomain(L, H), nx, ny, channel_layout())
    space = build_space(mesh)
    return mesh, space, assemble_operators(space)


# reference-triangle monomial integral: x^i y^j -> i! j! / (i+j+2)!
def _tri_monomial(i, j):
    from math import factorial
    return factorial(i) * factorial(j) / factorial(i + j + 2)


@pytest.mark.parametrize("degree", [2, 4, 6])
def test_triangle_rules_exact_for_monomials(degree):
    pts, w = triangle_rule(degree)
    assert abs(w.sum() - 0.5) <= 1e-14
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            val = np.sum(w * pts[:, 0] ** i * pts[:, 1] ** j)
            assert abs(val - _tri_monomial(i, j)) <= 1e-14, (i, j)


def duffy_rule(n: int):
    """Collapsed-coordinate Gauss product rule on the reference triangle, the
    independent quadrature oracle: an n x n Gauss-Legendre grid on the unit
    square mapped through (u, v) -> (u, v(1-u)); exact for polynomials up to
    degree n-1 and rapidly convergent for smooth integrands."""
    x, w = np.polynomial.legendre.leggauss(n)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    U, V = np.meshgrid(u, u, indexing="ij")
    WU, WV = np.meshgrid(wu, wu, indexing="ij")
    wts = WU * WV * (1.0 - U)  # Jacobian of the collapse
    return np.column_stack([U.ravel(), (V * (1.0 - U)).ravel()]), wts.ravel()


def test_duffy_rule_matches_dunavant():
    pts, w = duffy_rule(8)
    assert abs(w.sum() - 0.5) <= 1e-14
    for i, j in [(0, 0), (3, 2), (5, 1), (2, 4)]:
        assert abs(np.sum(w * pts[:, 0] ** i * pts[:, 1] ** j)
                   - _tri_monomial(i, j)) <= 1e-14


def test_edge_rule_degree():
    x, w = edge_rule(3)
    for d in range(6):
        assert abs(np.sum(w * x ** d) - 1.0 / (d + 1)) <= 1e-14


def test_space_counts_small():
    mesh, space, _ = make(1, 1, 1.0, 1.0)
    assert space.n_velocity == 18
    assert space.n_pressure == 4
    # the two wall edges carry 2 vertices each plus a midpoint: 6 scalar nodes
    assert len(space.constrained) == 12


def test_node_grid_is_the_half_cell_grid():
    # every quadratic node sits on the (2 nx + 1) x (2 ny + 1) grid of half cells
    mesh, space, _ = make(5, 3)
    g = space.node_grid()
    assert np.allclose(space.nodes, g * [10.0 / 10, 2.0 / 6] + [0.0, -1.0])
    assert len(np.unique(g[:, 0] * 7 + g[:, 1])) == space.n_scalar == 11 * 7


def test_space_counts_paper_mesh():
    mesh, space, _ = make(100, 20)
    assert space.n_velocity == 16482
    assert space.n_pressure == 2121
    # quadratic nodes on each horizontal wall: 101 vertices + 100 midpoints
    assert len(space.constrained) == 2 * 2 * 201


def test_mass_stiffness_symmetry_and_definiteness():
    mesh, space, ops = make(5, 3)
    for A in (ops.M, ops.K):
        gap = np.abs(A - A.T).max()
        assert gap <= 1e-14 * np.abs(A).max()
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.standard_normal(space.n_velocity)
        assert u @ (ops.M @ u) > 0
        assert u @ (ops.K @ u) >= -1e-12 * np.abs(u @ u)


def test_interface_flux_of_constant_field():
    mesh, space, ops = make(4, 4)
    u = interpolate_velocity(space, lambda x: np.column_stack(
        [np.ones(len(x)), np.zeros(len(x))]))
    assert abs(ops.flux[(1, 1, 1)] @ u - 2.0) <= 1e-12   # n = +e1, side length H = 2
    assert abs(ops.sigma @ u + 2.0) <= 1e-12             # left side, n = -e1
    assert np.max(np.abs(ops.D @ u)) <= 1e-12            # div of a constant


def test_discrete_divergence_theorem():
    mesh, space, ops = make(1, 1, 1.0, 1.0)
    all_flux = boundary_flux_vector(space, list(mesh.boundary_edges))
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.standard_normal(space.n_velocity)
        lhs = np.ones(space.n_pressure) @ (ops.D @ u)
        assert abs(lhs - all_flux @ u) <= 1e-12 * max(1.0, abs(lhs))


def test_body_force_zero_and_constant():
    mesh, space, ops = make(4, 2)
    zero = assemble_body_force(space, lambda x: np.zeros((len(x), 2)))
    assert np.array_equal(zero, np.zeros(space.n_velocity))
    const = assemble_body_force(space, lambda x: np.column_stack(
        [np.ones(len(x)), np.zeros(len(x))]))
    # partition of unity: the x-rows sum to the domain area
    assert abs(const[:space.n_scalar].sum() - 20.0) <= 1e-12 * 20.0
    assert np.max(np.abs(const[space.n_scalar:])) <= 1e-14


def test_body_force_quadrature_oracle(monkeypatch):
    # manufactured forcing of the first benchmark against a high-order rule,
    # on the benchmark mesh (the degree-6 rule needs h ~ 0.1 for 1e-10)
    mesh = build_rect_mesh(RectDomain(10.0, 2.0), 100, 20, channel_layout())
    space = build_space(mesh)
    exact = exact_for(1, nonlinear=True)
    f = lambda x: TimeSeparable(exact.domains[0].force, lambda g: g(x))(0.0)
    standard = assemble_body_force(space, f)
    with monkeypatch.context() as patch:
        patch.setattr(fem, "triangle_rule", lambda degree: duffy_rule(12))
        oracle = assemble_body_force(space, f)
    rel = np.linalg.norm(standard - oracle) / np.linalg.norm(oracle)
    assert rel <= 1e-10


def test_l2_norms_and_interpolation():
    # squared L2 norms through the assembled forms: ||v||^2 = v.Mv,
    # ||grad v||^2 = v.Kv, ||p||^2 = p.Mp p
    mesh, space, ops = make(8, 4)
    zero_v = np.zeros(space.n_velocity)
    zero_p = np.zeros(space.n_pressure)
    assert (zero_v @ (ops.M @ zero_v), zero_v @ (ops.K @ zero_v),
            zero_p @ (ops.Mp @ zero_p)) == (0.0, 0.0, 0.0)

    u = interpolate_velocity(space, lambda x: np.column_stack(
        [np.ones(len(x)), np.zeros(len(x))]))
    assert abs(np.sqrt(u @ (ops.M @ u)) - np.sqrt(20.0)) <= 1e-12
    assert u @ (ops.K @ u) <= 1e-12   # quadratic-form rounding floor

    # P1 reproduces linears: p = x1, ||p||^2 = H L^3 / 3
    p = interpolate_pressure(space, lambda x: x[:, 0])
    assert abs(p @ (ops.Mp @ p) - 2.0 * 1000.0 / 3.0) <= 1e-12 * 1000.0

    # P2 reproduces quadratics: v = (x2^2, 0), |grad v|^2 integrates to 80/3
    u2 = interpolate_velocity(space, lambda x: np.column_stack(
        [x[:, 1] ** 2, np.zeros(len(x))]))
    assert abs(u2 @ (ops.K @ u2) - 80.0 / 3.0) <= 1e-12 * 80.0


def test_exact_velocity_norm_paper_mesh():
    # interpolant of the benchmark profile at t=0: ||v||^2 -> 120 as h -> 0
    mesh, space, ops = make(100, 20)
    exact = exact_for(1)
    u = TimeSeparable(exact.domains[0].velocity, partial(interpolate_velocity, space))(0.0)
    assert abs(u @ (ops.M @ u) - 120.0) <= 1e-3 * 120.0
