import dataclasses

import numpy as np
import pytest

from stokes0d import (CircuitSpec, CircuitState, Connection, Example1Params,
                      Example2Params, Example3Params, eval_B, example1_circuit,
                      example2_circuit, example3_circuit, step2_integrate)
from stokes0d.circuits import capacitance_a, energy, resistance_a

EX1_B = np.array([[0.1, -10.0], [-10.0, 2000.0]])


def test_eval_B_example1_constant():
    spec = example1_circuit(Example1Params(), nonlinear=False)
    B = eval_B(spec, np.zeros(2), 0.0)
    assert np.allclose(B, EX1_B, rtol=1e-14)
    assert abs(np.linalg.det(B) - 100.0) <= 1e-10
    assert np.all(np.linalg.eigvalsh(0.5 * (B + B.T)) > 0)


def test_eval_B_zero_dynamics():
    spec = CircuitSpec(2, A=lambda y, t: np.zeros((2, 2)),
                       U=lambda y, t: np.array([1.0, 2.0]),
                       s=lambda y, t: np.zeros(2), connections=())
    assert np.array_equal(eval_B(spec, np.ones(2), 0.0), np.zeros((2, 2)))


def test_eval_B_finite_difference_matches_analytic():
    # U with explicit time dependence; dU/dt supplied vs differenced
    def U(y, t):
        return np.array([2.0 + np.sin(t), 1.0])

    def dU(y, t):
        return np.array([np.cos(t), 0.0])

    A = lambda y, t: np.array([[0.0, 1.0], [-1.0, 0.0]])
    s = lambda y, t: np.zeros(2)
    with_analytic = CircuitSpec(2, A, U, s, (), dU_dt=dU)
    with_fd = CircuitSpec(2, A, U, s, ())
    y = np.array([0.3, -0.7])
    Ba = eval_B(with_analytic, y, 0.4)
    Bf = eval_B(with_fd, y, 0.4, dt_fd=1e-6)
    assert np.max(np.abs(Ba - Bf)) <= 1e-8


def test_quadratic_form_example2():
    p = Example2Params()
    spec = example2_circuit(p)
    rng = np.random.default_rng(0)
    for _ in range(10):
        y = rng.standard_normal(3) * [1e3, 1e3, 10.0]
        B = eval_B(spec, y, 0.0)
        expected = p.R_a * y[2] ** 2 + y[1] ** 2 / p.R_b
        assert abs(y @ (B @ y) - expected) <= 1e-10 * max(expected, 1.0)


def test_quadratic_form_example3():
    p = Example3Params()
    spec = example3_circuit(p)
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = rng.standard_normal(3) * [1e3, 1e3, 10.0]
        B = eval_B(spec, y, 0.0)
        expected = y[0] ** 2 / p.R_a + y[1] ** 2 / p.R_b + p.R_c * y[2] ** 2
        assert abs(y @ (B @ y) - expected) <= 1e-10 * max(expected, 1.0)


def test_example1_builder_values():
    p = Example1Params()
    spec = example1_circuit(p, nonlinear=False)
    A = spec.A(np.zeros(2), 0.0)
    assert abs(A[0, 0] + 100.0) <= 1e-12
    assert np.array_equal(spec.U(np.zeros(2), 0.0), [p.C11_1, 1.0 / p.Cbar_a])
    assert spec.connections[0].interface_id == (1, 1, 1)
    assert spec.connections[0].pi_index == 0
    # variable-element laws
    assert abs(resistance_a(0.0, p) - 15.0) <= 1e-12
    p0 = Example1Params(gamma1=0.0)
    for w in (0.0, 0.5, 3.0):
        assert capacitance_a(w, p0) == p0.Cbar_a


def test_example23_builder_values():
    p2 = Example2Params()
    spec2 = example2_circuit(p2)
    assert abs(spec2.A(np.zeros(3), 0.0)[2, 0] - 1000.0 / 3.0) <= 1e-10
    assert [c.pi_index for c in spec2.connections] == [0, 1]
    assert [c.interface_id for c in spec2.connections] == [(1, 1, 1), (2, 1, 1)]

    p3 = Example3Params()
    spec3 = example3_circuit(p3)
    assert [c.interface_id for c in spec3.connections] == [(1, 1, 1), (1, 1, 2)]
    # generator sources live in s(t) only; interface sources are separate
    s = spec3.s(np.zeros(3), 0.25)
    assert s[2] == 0.0


def test_positive_diagonal_U_random_states():
    rng = np.random.default_rng(9)
    specs = [example1_circuit(Example1Params(), nonlinear=True),
             example2_circuit(Example2Params()),
             example3_circuit(Example3Params())]
    for spec in specs:
        for _ in range(25):
            y = np.abs(rng.standard_normal(spec.dim)) * [1e3] * spec.dim
            assert np.all(spec.U(y, rng.uniform(0, 2)) > 0)


def test_step2_identity_when_quiescent():
    spec = CircuitSpec(2, A=lambda y, t: np.zeros((2, 2)),
                       U=lambda y, t: np.ones(2),
                       s=lambda y, t: np.zeros(2), connections=())
    out = step2_integrate(spec, CircuitState(np.array([1.0, -2.0]), 0.0), 0.5, 4)
    assert np.array_equal(out.y, [1.0, -2.0])
    assert out.t == 2.0


def test_step2_scalar_implicit_euler():
    spec = CircuitSpec(1, A=lambda y, t: np.array([[-1.0]]),
                       U=lambda y, t: np.ones(1),
                       s=lambda y, t: np.zeros(1), connections=())
    out = step2_integrate(spec, CircuitState(np.array([1.0]), 0.0), 0.1, 1)
    assert abs(out.y[0] - 1.0 / 1.1) <= 1e-15


@pytest.mark.parametrize("dt2", [1e-3, 1.0, 100.0])
def test_step2_energy_decay_unforced(dt2):
    p = Example1Params()
    spec = example1_circuit(p, nonlinear=False)     # s = 0 without a generator
    state = CircuitState(np.array([1.0, 0.01]), 0.0)
    e_prev = energy(spec, state.y, 0.0)
    assert abs(2.0 * e_prev - 0.011) <= 1e-15
    for _ in range(6):
        state = step2_integrate(spec, state, dt2, 1)
        e = energy(spec, state.y, state.t)
        assert e <= e_prev * (1.0 + 1e-14)
        e_prev = e


def test_step2_singular_system_detected():
    spec = CircuitSpec(1, A=lambda y, t: np.array([[2.0]]),
                       U=lambda y, t: np.ones(1),
                       s=lambda y, t: np.zeros(1), connections=())
    # dt2 = 1/2 makes I - dt2 A exactly zero
    with pytest.raises(RuntimeError, match="singular"):
        step2_integrate(spec, CircuitState(np.ones(1), 0.0), 0.5, 1)


def test_step2_input_validation():
    spec = example1_circuit(Example1Params(), nonlinear=False)
    st = CircuitState(np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        step2_integrate(spec, st, -0.1, 1)
    with pytest.raises(ValueError):
        step2_integrate(spec, st, 0.1, 0)


def test_connection_validation():
    with pytest.raises(ValueError):
        Connection(-1.0, 0.1, 0, (1, 1, 1))
    with pytest.raises(ValueError):
        Connection(1.0, 0.0, 0, (1, 1, 1))
    with pytest.raises(ValueError):
        CircuitSpec(2, A=lambda y, t: np.zeros((2, 2)),
                    U=lambda y, t: np.ones(2), s=lambda y, t: np.zeros(2),
                    connections=(Connection(1.0, 1.0, 0, (1, 1, 1)),
                                 Connection(1.0, 1.0, 0, (1, 1, 2))))


@pytest.mark.parametrize("build, params_type", [
    (lambda p: example1_circuit(p, nonlinear=False), Example1Params),
    (lambda p: example1_circuit(p, nonlinear=True), Example1Params),
    (example2_circuit, Example2Params),
    (example3_circuit, Example3Params),
])
def test_builders_reject_non_positive_elements(build, params_type):
    names = params_type.CIRCUIT_ELEMENTS
    # every resistance, capacitance and inductance (L alone is the channel length)
    assert set(names) == {f.name for f in dataclasses.fields(params_type)
                          if f.name[0] in "RCL" and f.name != "L"}
    for name in names:
        for value in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"{name}={value}"):
                build(params_type(**{name: value}))
    build(params_type())
