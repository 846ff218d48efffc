import dataclasses
import math

import numpy as np
import pytest

from stokes0d import (Example1Params, TimeSeparable, build_case, example1_exact,
                      example2_exact, example3_exact, exact_for, verify_exact)
from stokes0d.circuits import capacitance_a, resistance_a

TIMES = np.linspace(0.0, 2.0, 100, endpoint=False)


def at(terms, points, t):
    """The field sum_j c_j(t) g_j(points) of an exact domain's terms."""
    return TimeSeparable(terms, lambda g: g(points))(t)


@pytest.mark.parametrize("example", [2, 3])
def test_only_example1_has_a_nonlinear_variant(example):
    with pytest.raises(ValueError, match="only example 1 has a nonlinear variant"):
        exact_for(example, nonlinear=True)
    with pytest.raises(ValueError, match="only example 1 has a nonlinear variant"):
        build_case(example, nonlinear=True, nx=4, ny=2)


def test_example1_values_at_t0():
    ex = example1_exact()
    P0 = 2.0 * (150.0 + 1000.0 * math.exp(-1.0))
    assert abs(ex.interfaces[(1, 1, 1)].P(0.0) - P0) <= 1e-10
    assert abs(P0 - 1035.7588823) <= 1e-6
    assert abs(ex.interfaces[(1, 1, 1)].Q(0.0) - 4.0) <= 1e-12
    assert abs(ex.interfaces[(1, 1, 1)].pi(0.0) - (P0 - 40.0)) <= 1e-10


def test_example1_static_when_drive_constant():
    ex = example1_exact(Example1Params(s1=0.0))
    for t in (0.0, 0.3, 1.7):
        assert np.allclose(ex.y(t), ex.y(0.0), rtol=0, atol=1e-14)
        assert np.max(np.abs(ex.dy_dt(t))) <= 1e-12
        # time-derivative part of the forcing vanishes
        pts = np.array([[1.0, 0.5]])
        assert abs(at(ex.domains[0].force, pts, t)[0, 0]
                   - at(ex.domains[0].force, pts, 0.0)[0, 0]) <= 1e-14


def test_example1_nonlinear_laws():
    p = Example1Params()
    assert abs(resistance_a(0.0, p) - 15.0) <= 1e-12
    ex = example1_exact(p, nonlinear=True)
    # the volume formula satisfies the volume-pressure relationship
    for t in TIMES[::10]:
        pi, w = ex.y(t)
        dpi = ex.dy_dt(t)[0]
        Q = ex.interfaces[(1, 1, 1)].Q(t)
        rhs = capacitance_a(w, p) * (pi - resistance_a(pi, p) * (Q - p.C11_1 * dpi))
        assert abs(w - rhs) <= 1e-10 * max(abs(w), 1.0)


def test_example1_negative_discriminant_detected():
    # gamma1 < 0 large enough flips the discriminant sign
    ex = example1_exact(Example1Params(gamma1=-50.0), nonlinear=True)
    with pytest.raises(ValueError, match="discriminant"):
        ex.y(0.0)


def test_example3_constants():
    ex = example3_exact()
    p = ex.params
    Pr = lambda x: p.a0 + p.a1 * np.exp(-p.k * x)
    C = (Pr(p.L) - Pr(0.0) - (p.R11_1 + p.R11_2) * p.V0 * p.H / 2.0) / p.R_c
    assert abs(C + 10.744579411836538) <= 1e-12
    # the mean of the flow-rate state is s0 * C
    w_mean = np.mean([ex.y(t)[2] for t in TIMES])
    assert abs(w_mean - p.s0 * C) <= 1e-9


def test_example3_flow_rates_antisymmetric():
    ex = example3_exact()
    for t in TIMES[::7]:
        assert abs(ex.interfaces[(1, 1, 1)].Q(t)
                   + ex.interfaces[(1, 1, 2)].Q(t)) <= 1e-14


def test_example3_flowrate_ode_residual():
    ex = example3_exact()
    p = ex.params
    for t in TIMES[::5]:
        pi1, pi2, w = ex.y(t)
        dw = ex.dy_dt(t)[2]
        resid = p.L_c * dw - (pi1 - pi2 - p.R_c * w)
        assert abs(resid) <= 1e-10 * max(abs(pi1), abs(pi2))


def test_example2_pi2_reconstruction():
    ex = example2_exact()
    p = ex.params
    for t in TIMES[::5]:
        ie = ex.interfaces[(2, 1, 1)]
        recon = ie.P(t) - p.R21_1 * ie.Q(t)
        direct = ie.pi(t)
        assert abs(recon - direct) <= 1e-10 * max(abs(direct), 1.0)


def test_all_evaluators_periodic():
    for ex in (example1_exact(nonlinear=True), example2_exact(), example3_exact()):
        pts = np.array([[2.0, 0.3], [9.0, -0.8]])
        for t in (0.0, 0.41, 1.23):
            assert np.max(np.abs(ex.y(t + ex.tau) - ex.y(t))) \
                <= 1e-12 * max(1.0, np.max(np.abs(ex.y(t))))
            for dom in ex.domains:
                dv = at(dom.velocity, pts, t + ex.tau) - at(dom.velocity, pts, t)
                assert np.max(np.abs(dv)) <= 1e-12
            for ie in ex.interfaces.values():
                assert abs(ie.Q(t + ex.tau) - ie.Q(t)) <= 1e-12 * max(1.0, abs(ie.Q(t)))


@pytest.mark.parametrize("example,nonlinear", [(1, False), (1, True), (2, False),
                                               (3, False)])
def test_verify_exact_passes(example, nonlinear):
    case = build_case(example, nonlinear=nonlinear, nx=20, ny=4)
    rep = verify_exact(case.system, case.exact, TIMES[::4])
    assert rep.circuit_residual <= 1e-10
    assert rep.coupling_residual <= 1e-10
    assert rep.flux_residual <= 1e-10
    assert rep.weak_residual <= 0.5 * rep.mesh_h ** 2


def test_verify_exact_negative_control():
    # a system with its forcing zeroed cannot reproduce the forced solution
    case = build_case(1, nx=10, ny=2, zero_forcing=True)
    rep = verify_exact(case.system, exact_for(1), TIMES[::20])
    assert rep.circuit_residual > 1e-3


def test_example2_interface_pressure_is_on_the_left_side_of_domain_2():
    # the (2, 1, 1) interface is domain 2's left side (x1 = 0), not x1 = L
    case = build_case(2, nx=20, ny=4)
    ex = case.exact
    pressure, L, H = ex.domains[1].pressure, ex.params.L, ex.params.H
    side = lambda x1: np.array([[x1, 0.25 * H]])
    ie = ex.interfaces[(2, 1, 1)]
    for t in TIMES[::10]:
        P = ie.P(t)
        assert abs(P - at(pressure, side(0.0), t)[0]) <= 1e-14 * abs(P)
    far = dataclasses.replace(ie, P=lambda t: at(pressure, side(L), t)[0])
    wrong = dataclasses.replace(ex, interfaces={**ex.interfaces, (2, 1, 1): far})
    assert verify_exact(case.system, ex, TIMES[::4]).coupling_residual <= 1e-10
    assert verify_exact(case.system, wrong, TIMES[::4]).coupling_residual > 1e-3
