import dataclasses

import numpy as np
import pytest

from stokes0d import (CoupledState, Example1Params, StepConfig, build_case,
                      convergence_rate, convergence_study, error_norms,
                      example1_circuit, params_for, periods_per_tau, run,
                      run_to_periodicity, stability_run)
from stokes0d.analysis import energy_report, step1_energy_residual
from stokes0d.circuits import energy


def coarse_case(example=1, **kw):
    kw.setdefault("nx", 20)
    kw.setdefault("ny", 4)
    return build_case(example, **kw)


def test_energy_report_zero_state():
    case = coarse_case(zero_forcing=True)
    rep = energy_report(case.system, case.system.zero_state())
    assert (rep.e_omega, rep.e_ups, rep.d_omega, rep.d_rc, rep.u_ups) \
        == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_energy_report_exact_initial_state():
    case = build_case(1, nx=100, ny=20)
    rep = energy_report(case.system, case.initial_state())
    assert abs(rep.e_omega - 60.0) <= 1e-3 * 60.0


def test_circuit_energy_value():
    spec = example1_circuit(Example1Params(), nonlinear=False)
    assert abs(energy(spec, np.array([1.0, 0.01]), 0.0) - 0.0055) <= 1e-15


def periodicity_gap(system, states, period_samples: int) -> float:
    """Relative squared distance between the last two recorded periods: the
    offline oracle for the streaming gaps of `run_to_periodicity`.

    A period vector concatenates period_samples + 1 consecutive states;
    the squared norm of a period vector sums the squared spatial L2 norms
    (fields) or squared Euclidean norms (circuit states) of its states,
    and the gap is the max over fields of the ratio of those sums.
    """
    n_per = int(period_samples)
    if n_per < 1:
        raise ValueError("period_samples must be >= 1")
    if len(states) < 2 * n_per + 1:
        raise ValueError(f"need at least {2 * n_per + 1} states "
                         f"(two full periods), have {len(states)}")
    cur = states[-(n_per + 1):]
    prev = states[-(2 * n_per + 1):-n_per]

    gaps = []
    for l, dom in enumerate(system.domains):
        for mat, pick in ((dom.ops.M, lambda s: s.velocities[l]),
                          (dom.ops.Mp, lambda s: s.pressures[l])):
            num = den = 0.0
            for sc, sp in zip(cur, prev):
                d = pick(sc) - pick(sp)
                num += float(d @ (mat @ d))
                den += float(pick(sp) @ (mat @ pick(sp)))
            if den <= 0.0:
                raise ZeroDivisionError("previous period has zero norm; "
                                        "degenerate periodicity reference")
            gaps.append(num / den)
    for m in range(len(system.circuits)):
        num = den = 0.0
        for sc, sp in zip(cur, prev):
            d = sc.ys[m] - sp.ys[m]
            num += float(d @ d)
            den += float(sp.ys[m] @ sp.ys[m])
        if den <= 0.0:
            raise ZeroDivisionError("previous period has zero norm; "
                                    "degenerate periodicity reference")
        gaps.append(num / den)
    return max(gaps)


def test_periodicity_gap_constant_trajectory():
    case = coarse_case()
    state = case.initial_state()
    assert periodicity_gap(case.system, [state] * 9, 4) == 0.0


def test_periodicity_gap_exact_snapshots():
    # exact evaluators are periodic by construction: gap at rounding level
    case = coarse_case()
    n_per = 8
    dt = case.tau / n_per
    states = []
    for i in range(2 * n_per + 1):
        st = case.initial_state()
        t = i * dt
        from stokes0d import interpolate_pressure, interpolate_velocity
        dom = case.system.domains[0]
        st.velocities[0] = interpolate_velocity(dom.space, dom.mesh,
                                                case.exact.domains[0].velocity, t)
        st.pressures[0] = interpolate_pressure(dom.space, dom.mesh,
                                               case.exact.domains[0].pressure, t)
        st.ys[0] = case.exact.y(t)
        st.t = t
        states.append(st)
    assert periodicity_gap(case.system, states, n_per) <= 1e-12


def test_periodicity_gap_zero_reference_rejected():
    case = coarse_case(zero_forcing=True)
    states = [case.system.zero_state()] * 5
    with pytest.raises(ZeroDivisionError):
        periodicity_gap(case.system, states, 2)
    with pytest.raises(ValueError):
        periodicity_gap(case.system, states, 3)   # too few states


def test_error_norms_zero_for_exact_trajectory():
    case = coarse_case()
    dt = case.tau / 8
    states = []
    from stokes0d import interpolate_pressure, interpolate_velocity
    dom = case.system.domains[0]
    for i in range(9):
        st = case.initial_state()
        t = i * dt
        st.velocities[0] = interpolate_velocity(dom.space, dom.mesh,
                                                case.exact.domains[0].velocity, t)
        st.pressures[0] = interpolate_pressure(dom.space, dom.mesh,
                                               case.exact.domains[0].pressure, t)
        st.ys[0] = case.exact.y(t)
        st.t = t
        states.append(st)
    rep = error_norms(case.system, states, case.exact, dt)
    assert rep.err_v <= 1e-13 and rep.err_p <= 1e-13 and rep.err_y <= 1e-13

    # joint scaling of computed and exact fields leaves the errors unchanged
    doubled = [CoupledState([2.0 * v for v in s.velocities],
                            [2.0 * p for p in s.pressures], s.ys, {}, s.t)
               for s in states]
    exact2 = _scaled_exact(case.exact, 2.0)
    rep2 = error_norms(case.system, doubled, exact2, dt)
    assert abs(rep2.err_v - rep.err_v) <= 1e-12
    assert abs(rep2.err_p - rep.err_p) <= 1e-12


def _scaled_exact(exact, c):
    def scaled(terms):
        return tuple((lambda t, a=a: c * a(t), g) for a, g in terms)
    doms = tuple(dataclasses.replace(d, velocity_terms=scaled(d.velocity_terms),
                                     pressure_terms=scaled(d.pressure_terms))
                 for d in exact.domains)
    return dataclasses.replace(exact, domains=doms)


def test_error_norms_vanishing_denominator():
    case = coarse_case()
    st = case.initial_state()
    st.velocities[0] = np.zeros_like(st.velocities[0])
    zeroed = _scaled_exact(case.exact, 0.0)
    with pytest.raises(ZeroDivisionError):
        error_norms(case.system, [st], zeroed, 0.1)


def test_error_norm_symmetry_constant_U():
    # with constant U, swapping computed and exact gives the same err_y
    case = coarse_case(2)
    dt = 0.01
    state = run(case.system, case.initial_state(), StepConfig(dt, 10), 3)
    spec = case.system.circuits[0]
    t = state.t
    U = np.sqrt(spec.U(state.ys[0], t))
    yex = case.exact.y(t)
    fwd = np.linalg.norm(U * state.ys[0] - U * yex)
    assert np.array_equal(U, np.sqrt(spec.U(yex, t)))
    bwd = np.linalg.norm(U * yex - U * state.ys[0])
    assert fwd == bwd


def test_convergence_rate_fits():
    assert abs(convergence_rate([(0.01, 0.02), (0.005, 0.01), (0.001, 0.002)])
               - 1.0) <= 1e-12
    assert abs(convergence_rate([(0.1, 1e-2), (0.01, 1e-4)]) - 2.0) <= 1e-12
    with pytest.raises(ValueError):
        convergence_rate([(0.01, 0.1)])
    with pytest.raises(ValueError):
        convergence_rate([(0.01, 0.1), (0.005, -0.1)])


def test_run_to_periodicity_and_streaming_gap():
    case = coarse_case()
    res = run_to_periodicity(case, 0.05, eps_per=1e-6, max_periods=8)
    assert res.converged
    assert res.last_period is not None
    assert len(res.last_period) == res.n_tau + 1
    assert res.final_gap < 1e-6
    assert res.errors is not None and res.errors.err_v > 0
    assert res.errors.period_index == res.periods


def test_streaming_gap_matches_module_function():
    # replay the same run collecting every state; the tracker's per-period
    # gaps must coincide with periodicity_gap applied to the full history
    case = coarse_case()
    n_per = periods_per_tau(case.tau, 0.05)
    state = case.initial_state()
    states = [state]

    def collect(record):
        states.append(record.state)

    res = run_to_periodicity(case, 0.05, eps_per=1e-30, max_periods=3,
                             collect_series=False)
    assert res.errors is None
    run(case.system, state, StepConfig(0.05, case.s_sub), 3 * n_per,
        observers=(collect,))
    for p in (2, 3):
        ref = periodicity_gap(case.system, states[:p * n_per + 1], n_per)
        assert abs(res.gaps[p] - ref) <= 1e-12 * max(ref, 1e-30)


def test_run_to_periodicity_max_periods_zero():
    case = coarse_case()
    res = run_to_periodicity(case, 0.05, max_periods=0)
    assert not res.converged and res.periods == 0
    assert len(res.series) == 1
    assert res.series[0].energy.e_omega > 0


@pytest.mark.parametrize("dt", [0.0, -0.05, float("nan"), float("inf")])
def test_time_step_checked_before_use(dt):
    with pytest.raises(ValueError, match="dt="):
        StepConfig(dt)
    with pytest.raises(ValueError, match="dt="):
        periods_per_tau(1.0, dt)


def _never_built():
    raise AssertionError("the case was built before the arguments were checked")


@pytest.mark.parametrize("kwargs, name", [
    ({"max_periods": -1}, "max_periods"), ({"eps_per": -1.0}, "eps_per"),
    ({"eps_per": float("nan")}, "eps_per"), ({"eps_per": 0.0}, "eps_per")])
def test_run_length_checked_before_running(kwargs, name):
    with pytest.raises(ValueError, match=f"{name}="):
        run_to_periodicity(coarse_case(nx=8, ny=2), 0.05, **kwargs)
    with pytest.raises(ValueError, match=f"{name}="):
        convergence_study(_never_built, [0.05], **kwargs)


def test_convergence_study_checks_every_dt_and_a_period_budget():
    # max_periods = 0 can never converge, and a bad dt fails before any run
    with pytest.raises(ValueError, match="max_periods="):
        convergence_study(_never_built, [0.05], max_periods=0)
    with pytest.raises(ValueError, match="dt="):
        convergence_study(_never_built, [0.05, float("nan")])


def test_stability_run_fails_when_the_energy_goes_nan():
    params = dataclasses.replace(params_for(1), R_b=float("nan"))
    case = build_case(1, nx=8, ny=2, zero_forcing=True, params=params)
    rep = stability_run(case, 1.0, 3)
    assert np.isnan(rep.max_increase) and np.isnan(rep.chain_violation)
    assert not rep.passed()


@pytest.fixture(scope="module")
def unforced_20x4():
    return {key: coarse_case(key[0], nonlinear=key[1], zero_forcing=True)
            for key in ((1, False), (1, True), (2, False), (3, False))}


@pytest.mark.parametrize("explicit_pi", [False, True])
@pytest.mark.parametrize("dt", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("key", [(1, False), (1, True), (2, False), (3, False)])
def test_stability_run_matches_full_energy_reports(unforced_20x4, key, dt, explicit_pi):
    """The one-pass audit gives the bits of two energy reports and the
    stage-1 residual per step, folded the same way."""
    case = unforced_20x4[key]
    n_steps = 60
    state = case.initial_state()
    e0 = energy_report(case.system, state).total
    fold = {"e_prev": e0, "inc": -np.inf, "chain": -np.inf, "resid": 0.0}

    def audit(record):
        e_mid = energy_report(case.system, record.intermediate).total
        e_new = energy_report(case.system, record.state).total
        _, _, rel = step1_energy_residual(case.system, record.previous,
                                          record.intermediate, dt)
        fold["inc"] = float(np.max([fold["inc"], e_new - fold["e_prev"]]))
        fold["chain"] = float(np.max([fold["chain"], e_mid - fold["e_prev"],
                                      e_new - e_mid]))
        fold["resid"] = float(np.max([fold["resid"], rel]))
        fold["e_prev"] = e_new

    run(case.system, state, StepConfig(dt, case.s_sub), n_steps, observers=(audit,),
        explicit_pi=explicit_pi)
    rep = stability_run(case, dt, n_steps, explicit_pi=explicit_pi)
    expected = [e0, fold["inc"], fold["chain"], fold["resid"]]
    got = [rep.e0, rep.max_increase, rep.chain_violation, rep.max_identity_residual]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
