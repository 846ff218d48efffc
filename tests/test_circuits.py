import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag

import stokes0d.circuits as circuits_module
from stokes0d import (CircuitSpec, Connection, Example1Params,
                      Example2Params, Example3Params, StepConfig, build_case,
                      eval_B, example1_circuit, example1_exact, example2_circuit,
                      example2_exact, example3_circuit, example3_exact, run,
                      step2_integrate)
from stokes0d.circuits import (capacitance_a, energy, resistance_a,
                               resistance_a_prime)
from stokes0d.params import params_for

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
                       s=lambda t: np.zeros(np.shape(t) + (2,)), connections=())
    assert np.array_equal(eval_B(spec, np.ones(2), 0.0), np.zeros((2, 2)))


def test_eval_B_finite_difference_matches_analytic():
    # U with explicit time dependence: the differenced dU/dt against the
    # analytic one, B = -U A - (1/2) dU/dt
    def U(y, t):
        return np.array([2.0 + np.sin(t), 1.0])

    def dU(y, t):
        return np.array([np.cos(t), 0.0])

    A = lambda y, t: np.array([[0.0, 1.0], [-1.0, 0.0]])
    s = lambda t: np.zeros(np.shape(t) + (2,))
    spec = CircuitSpec(2, A, U, s, ())
    y = np.array([0.3, -0.7])
    Ba = -np.diag(U(y, 0.4)) @ A(y, 0.4) - 0.5 * np.diag(dU(y, 0.4))
    Bf = eval_B(spec, y, 0.4)
    assert np.max(np.abs(Ba - Bf)) <= 1e-8


def test_du_dt_step_is_a_millionth_of_the_period():
    # the step the drivers once passed as 1e-6 * tau, bit for bit
    for example in (1, 2, 3):
        assert circuits_module.DU_DT_STEP == 1e-6 * params_for(example).tau


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
    A = spec.A
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
    assert abs(spec2.A[2, 0] - 1000.0 / 3.0) <= 1e-10
    assert [c.pi_index for c in spec2.connections] == [0, 1]
    assert [c.interface_id for c in spec2.connections] == [(1, 1, 1), (2, 1, 1)]

    p3 = Example3Params()
    spec3 = example3_circuit(p3)
    assert [c.interface_id for c in spec3.connections] == [(1, 1, 1), (1, 1, 2)]
    # generator sources live in s(t) only; interface sources are separate
    s = spec3.s(0.25)
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


def _substep_sources(spec, t, n_sub, dt2):
    """s at the end times of n_sub substeps of size dt2 from t, as the
    splitting hands them to stage 2."""
    return spec.s(t + np.arange(1, n_sub + 1) * dt2)


def test_step2_identity_when_quiescent():
    spec = CircuitSpec(2, A=lambda y, t: np.zeros((2, 2)),
                       U=lambda y, t: np.ones(2),
                       s=lambda t: np.zeros(np.shape(t) + (2,)), connections=())
    y = step2_integrate(spec, np.array([1.0, -2.0]), 0.0, 4, 0.5, np.zeros((4, 2)))
    assert np.array_equal(y, [1.0, -2.0])


def test_step2_scalar_implicit_euler():
    spec = CircuitSpec(1, A=lambda y, t: np.array([[-1.0]]),
                       U=lambda y, t: np.ones(1),
                       s=lambda t: np.zeros(np.shape(t) + (1,)), connections=())
    y = step2_integrate(spec, np.array([1.0]), 0.0, 1, 0.1, np.zeros((1, 1)))
    assert abs(y[0] - 1.0 / 1.1) <= 1e-15


@pytest.mark.parametrize("dt2", [1e-3, 1.0, 100.0])
def test_step2_energy_decay_unforced(dt2):
    p = Example1Params()
    spec = example1_circuit(p, nonlinear=False)     # s = 0 without a generator
    y, t = np.array([1.0, 0.01]), 0.0
    e_prev = energy(spec, y, t)
    assert abs(2.0 * e_prev - 0.011) <= 1e-15
    for _ in range(6):
        y, t = step2_integrate(spec, y, t, 1, dt2, _substep_sources(spec, t, 1, dt2)), t + dt2
        e = energy(spec, y, t)
        assert e <= e_prev * (1.0 + 1e-14)
        e_prev = e


def test_step2_singular_system_detected():
    spec = CircuitSpec(1, A=lambda y, t: np.array([[2.0]]),
                       U=lambda y, t: np.ones(1),
                       s=lambda t: np.zeros(np.shape(t) + (1,)), connections=())
    # dt2 = 1/2 makes I - dt2 A exactly zero
    with pytest.raises(RuntimeError, match="singular"):
        step2_integrate(spec, np.ones(1), 0.0, 1, 0.5, np.zeros((1, 1)))


def _forced_circuits():
    """Every builder with its benchmark's generators, and benchmark 1 unforced,
    each with a state of its exact solution to start from."""
    ex1, ex1n = example1_exact(), example1_exact(nonlinear=True)
    ex2, ex3 = example2_exact(), example3_exact()
    gen1, gen1n = ex1.generators["p_tilde"], ex1n.generators["p_tilde"]
    p1 = Example1Params()
    return {
        "ex1-linear": (example1_circuit(p1, False, gen1), ex1.y),
        "ex1-nonlinear": (example1_circuit(p1, True, gen1n), ex1n.y),
        "ex1-unforced": (example1_circuit(p1, False), ex1.y),
        "ex2": (example2_circuit(Example2Params(), ex2.generators["p_tilde"]), ex2.y),
        "ex3": (example3_circuit(Example3Params(), ex3.generators["p_tilde_a"],
                                 ex3.generators["p_tilde_b"]), ex3.y),
    }


def _step2_reference(spec, y, t, n_sub, dt2):
    """Stage 2 one substep at a time: A, the substep's source row,
    I - dt2 A and np.linalg.solve at every substep."""
    sources = spec.s(t + np.arange(1, n_sub + 1) * dt2)
    y = np.array(y, dtype=float)
    eye = np.eye(spec.dim)
    for k in range(n_sub):
        t_new = t + (k + 1) * dt2
        y = np.linalg.solve(eye - dt2 * spec.matrix(y, t_new), y + dt2 * sources[k])
    return y


@pytest.mark.parametrize("dt2", [1e-4, 1e-2, 1.0, 100.0])
@pytest.mark.parametrize("n_sub", [1, 5, 10])
@pytest.mark.parametrize("name", list(_forced_circuits()))
def test_step2_matches_the_substep_loop_bitwise(name, n_sub, dt2):
    spec, y_exact = _forced_circuits()[name]
    y0 = y_exact(0.3)
    y = step2_integrate(spec, y0, 0.3, n_sub, dt2, _substep_sources(spec, 0.3, n_sub, dt2))
    assert y.tobytes() == _step2_reference(spec, y0, 0.3, n_sub, dt2).tobytes()
    assert np.array_equal(y0, y_exact(0.3))     # the input is not touched


@pytest.mark.parametrize("name", list(_forced_circuits()))
def test_sources_broadcast_over_times(name):
    spec, _ = _forced_circuits()[name]
    times = np.linspace(0.0, 3.7, 7)
    rows = spec.s(times)
    assert spec.s(0.4).shape == (spec.dim,)
    assert rows.shape == (7, spec.dim)
    for k, t in enumerate(times.tolist()):
        assert rows[k].tobytes() == spec.s(t).tobytes()


def test_constant_circuits_carry_an_array():
    # stage 2 factors an array A once per substep size, a callable at every substep
    circuits = _forced_circuits()
    for name in ("ex1-linear", "ex1-unforced", "ex2", "ex3"):
        spec, _ = circuits[name]
        assert isinstance(spec.A, np.ndarray) and spec.A.shape == (spec.dim, spec.dim)
        assert not spec.A.flags.writeable
        assert spec.matrix(np.ones(spec.dim), 1.0) is spec.A
    spec, _ = circuits["ex1-nonlinear"]
    assert callable(spec.A)
    assert spec.matrix(np.zeros(2), 0.0).tobytes() != spec.matrix(np.ones(2), 0.0).tobytes()


def _count_factorizations(monkeypatch):
    calls = []
    real = circuits_module.dgetrf

    def counting(a):
        calls.append(1)
        return real(a)

    monkeypatch.setattr(circuits_module, "dgetrf", counting)
    return calls


@pytest.mark.parametrize("s_sub", [1, 4])
def test_a_constant_circuit_factors_once_per_substep_size(monkeypatch, s_sub):
    case = build_case(3, nx=8, ny=2)
    calls = _count_factorizations(monkeypatch)
    state = run(case.system, case.initial_state(), StepConfig(0.01, s_sub), 3)
    assert len(calls) == 1
    run(case.system, state, StepConfig(0.01, s_sub), 3)      # the same dt2
    assert len(calls) == 1
    run(case.system, state, StepConfig(0.02, s_sub), 3)      # a new one
    assert len(calls) == 2


def test_a_state_dependent_circuit_factors_every_substep(monkeypatch):
    case = build_case(1, nonlinear=True, nx=8, ny=2)
    calls = _count_factorizations(monkeypatch)
    run(case.system, case.initial_state(), StepConfig(0.01, 4), 3)
    assert len(calls) == 3 * 4


def test_circuit_matrix_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match="shape"):
        CircuitSpec(2, A=np.zeros((3, 3)), U=lambda y, t: np.ones(2),
                    s=lambda t: np.zeros(np.shape(t) + (2,)), connections=())


def _union(*specs):
    """Several circuits as one: states stacked, U and s concatenated, A
    block-diagonal of the parts' matrices at their parts of the state."""
    cuts = np.cumsum([0] + [spec.dim for spec in specs])

    def parts(y):
        return [y[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

    return CircuitSpec(
        int(cuts[-1]),
        A=lambda y, t: block_diag(*(spec.matrix(p, t) for spec, p in zip(specs, parts(y)))),
        U=lambda y, t: np.concatenate([spec.U(p, t) for spec, p in zip(specs, parts(y))]),
        s=lambda t: np.concatenate([spec.s(t) for spec in specs], axis=-1),
        connections=())


@pytest.mark.parametrize("dt2", [1e-4, 1e-2, 1.0, 100.0])
@pytest.mark.parametrize("names", [("ex2", "ex3"), ("ex1-nonlinear", "ex3")])
def test_several_circuits_are_one(names, dt2):
    # a system holds one circuit; a network of several is their union
    circuits = _forced_circuits()
    specs = [circuits[name][0] for name in names]
    starts = [circuits[name][1](0.3) for name in names]
    union = _union(*specs)
    y0 = np.concatenate(starts)
    for n_sub in (1, 5):
        got = step2_integrate(union, y0, 0.3, n_sub, dt2,
                              _substep_sources(union, 0.3, n_sub, dt2))
        want = np.concatenate([
            step2_integrate(spec, y, 0.3, n_sub, dt2, _substep_sources(spec, 0.3, n_sub, dt2))
            for spec, y in zip(specs, starts)])
        assert got.tobytes() == want.tobytes()
    parts = [energy(spec, y, 0.3) for spec, y in zip(specs, starts)]
    assert energy(union, y0, 0.3) == pytest.approx(sum(parts), rel=1e-15)


def test_step2_rejects_sources_of_the_wrong_shape():
    spec = CircuitSpec(2, A=lambda y, t: np.zeros((2, 2)),
                       U=lambda y, t: np.ones(2),
                       s=lambda t: np.zeros(2), connections=())
    with pytest.raises(ValueError, match="shape"):
        step2_integrate(spec, np.ones(2), 0.0, 4, 0.1, _substep_sources(spec, 0.0, 4, 0.1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_resistance_laws_at_a_very_negative_pressure():
    p = Example1Params()
    assert resistance_a(-1e7, p) == p.Rbar_a
    assert resistance_a_prime(-1e7, p) == 0.0
    pis = np.array([-1e7, -1e5, 0.0, 3e2, np.nan])
    assert np.array_equal(resistance_a(pis, p)[:1], [p.Rbar_a])
    d = resistance_a_prime(pis, p)
    assert d.shape == pis.shape and d[0] == 0.0 and np.isnan(d[-1])
    # where exp does not overflow, the laws are the plain formulas
    for k, pi in enumerate(pis[1:4].tolist(), 1):
        e = p.alpha1 * np.exp(-p.alpha2 * pi)
        assert resistance_a(pi, p) == p.Rbar_a + p.alpha0 / (1.0 + e)
        assert resistance_a_prime(pi, p) == p.alpha0 * p.alpha2 * e / (1.0 + e) ** 2
        assert d[k] == resistance_a_prime(pi, p)


@settings(max_examples=200, deadline=None)
@given(pi=st.floats(-1e7, 1e7), log_alphas=st.tuples(
    st.floats(-2, 3), st.floats(-6, 6), st.floats(-6, 2)))
def test_resistance_laws_are_a_bounded_logistic(pi, log_alphas):
    alpha0, alpha1, alpha2 = (10.0 ** e for e in log_alphas)
    p = Example1Params(alpha0=alpha0, alpha1=alpha1, alpha2=alpha2)
    # a central difference over 2e-4 of the law's width 1/alpha2
    lo, hi = pi - 1e-4 / alpha2, pi + 1e-4 / alpha2
    pis = np.array([pi, lo, hi])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r, d = resistance_a(pis, p), resistance_a_prime(pis, p)
        scalars = [(resistance_a(x, p), resistance_a_prime(x, p)) for x in pis.tolist()]
    assert r.tobytes() == np.array([a for a, _ in scalars]).tobytes()
    assert d.tobytes() == np.array([b for _, b in scalars]).tobytes()
    assert np.all((p.Rbar_a <= r) & (r <= p.Rbar_a + alpha0))
    assert np.all(np.isfinite(d)) and np.all(d >= 0.0)
    central = (r[2] - r[1]) / (hi - lo)
    assert abs(d[0] - central) <= 1e-6 * alpha0 * alpha2


def test_step2_input_validation():
    spec = example1_circuit(Example1Params(), nonlinear=False)
    with pytest.raises(ValueError):
        step2_integrate(spec, np.zeros(2), 0.0, 1, -0.1, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        step2_integrate(spec, np.zeros(2), 0.0, 0, 0.1, np.zeros((0, 2)))


def test_connection_validation():
    with pytest.raises(ValueError):
        Connection(-1.0, 0.1, 0, (1, 1, 1))
    with pytest.raises(ValueError):
        Connection(1.0, 0.0, 0, (1, 1, 1))
    with pytest.raises(ValueError):
        CircuitSpec(2, A=lambda y, t: np.zeros((2, 2)),
                    U=lambda y, t: np.ones(2), s=lambda t: np.zeros(np.shape(t) + (2,)),
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
