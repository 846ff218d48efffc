import dataclasses
from functools import partial

import numpy as np
import pytest

from stokes0d import (CoupledState, CoupledSystem, Example1Params, StepConfig,
                      TimeSeparable, build_case, convergence_rate, convergence_study,
                      error_norms, example1_circuit, interpolate_pressure, interpolate_velocity,
                      params_for, peak_errors, periods_per_tau, run,
                      run_to_periodicity, stability_run)
from stokes0d.analysis import energy_report, step1_energy_residual
from stokes0d.circuits import energy


def coarse_case(example=1, **kw):
    kw.setdefault("nx", 20)
    kw.setdefault("ny", 4)
    return build_case(example, **kw)


def full_energy_report(case, state):
    """Every energy term of `state`, u_ups with its -1/2 dU/dt term."""
    return energy_report(case.system, state, 1e-6 * case.tau)


def exact_states(case, times):
    """States of a one-domain case holding the exact fields' nodal
    interpolants and the exact circuit state at each of the times."""
    dom, dex = case.system.domains[0], case.exact.domains[0]
    velocity = TimeSeparable(dex.velocity, partial(interpolate_velocity, dom.space))
    pressure = TimeSeparable(dex.pressure, partial(interpolate_pressure, dom.space))
    states = []
    for t in times:
        v = velocity(t)
        states.append(dataclasses.replace(
            case.initial_state(), velocities=[v], pressures=[pressure(t)],
            y=case.exact.y(t), t=t, mass_products=case.system.mass_products([v])))
    return states


def test_energy_report_zero_state():
    case = coarse_case(zero_forcing=True)
    rep = full_energy_report(case, case.system.zero_state())
    assert (rep.e_omega, rep.e_ups, rep.d_omega, rep.d_rc, rep.u_ups) \
        == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_energy_report_exact_initial_state():
    case = build_case(1, nx=100, ny=20)
    rep = full_energy_report(case, case.initial_state())
    assert abs(rep.e_omega - 60.0) <= 1e-3 * 60.0


def test_energy_report_needs_the_difference_step():
    # u_ups = y^T B y takes B's -1/2 dU/dt term, a central difference of
    # step dt_fd: nonlinear benchmark 1 reads 90 241.11 at t = 0 with it and
    # 91 040.43 without, so the step has no default to forget
    case = coarse_case(1, nonlinear=True, nx=8, ny=2)
    state = case.initial_state()
    with pytest.raises(TypeError):
        energy_report(case.system, state)
    assert abs(full_energy_report(case, state).u_ups - 90241.108237) <= 1e-6 * 90241.1


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
    num = den = 0.0
    for sc, sp in zip(cur, prev):
        d = sc.y - sp.y
        num += float(d @ d)
        den += float(sp.y @ sp.y)
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
    states = exact_states(case, [i * dt for i in range(2 * n_per + 1)])
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
    states = exact_states(case, [i * dt for i in range(9)])
    rep = error_norms(case.system, states, case.exact, dt)
    assert rep.err_v <= 1e-13 and rep.err_p <= 1e-13 and rep.err_y <= 1e-13

    # joint scaling of computed and exact fields leaves the errors unchanged
    doubled = [CoupledState([2.0 * v for v in s.velocities],
                            [2.0 * p for p in s.pressures], s.y, s.flows,
                            s.node_pressures, s.t,
                            [2.0 * mv for mv in s.mass_products])
               for s in states]
    exact2 = _scaled_exact(case.exact, 2.0)
    rep2 = error_norms(case.system, doubled, exact2, dt)
    assert abs(rep2.err_v - rep.err_v) <= 1e-12
    assert abs(rep2.err_p - rep.err_p) <= 1e-12


def _scaled_exact(exact, c):
    def scaled(terms):
        return tuple((lambda t, a=a: c * a(t), g) for a, g in terms)
    doms = tuple(dataclasses.replace(d, velocity=scaled(d.velocity),
                                     pressure=scaled(d.pressure))
                 for d in exact.domains)
    return dataclasses.replace(exact, domains=doms)


def test_error_norms_vanishing_denominator():
    case = coarse_case()
    st = case.initial_state()
    zero = (np.zeros_like(st.velocities[0]),)
    st = dataclasses.replace(st, velocities=zero,
                             mass_products=case.system.mass_products(zero))
    zeroed = _scaled_exact(case.exact, 0.0)
    with pytest.raises(ZeroDivisionError):
        error_norms(case.system, [st], zeroed, 0.1)


def test_error_norm_symmetry_constant_U():
    # with constant U, swapping computed and exact gives the same err_y
    case = coarse_case(2)
    dt = 0.01
    start = case.initial_state()
    state = run(case.system, start, StepConfig(dt, 10), 3)
    spec = case.system.circuit
    t = state.t
    U = np.sqrt(spec.U(state.y, t))
    yex = case.exact.y(t)
    fwd = np.linalg.norm(U * state.y - U * yex)
    assert np.array_equal(U, np.sqrt(spec.U(yex, t)))
    bwd = np.linalg.norm(U * yex - U * state.y)
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
    want = error_norms(case.system, res.last_period, case.exact, 0.05)
    assert [x.hex() for x in vars(res.errors).values()] == \
        [x.hex() for x in vars(want).values()]


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


def series_peak_errors(result, interface_id) -> dict:
    """Relative peak errors of P and Q over the last N_tau + 1 series rows:
    the oracle for `peak_errors`, which reads the last period's states."""
    rows = result.series[-(result.n_tau + 1):]
    system = result.case.system
    k = [c.interface_id for _, c in system.connections].index(interface_id)
    ie = result.case.exact.interfaces[interface_id]
    p_num = q_num = p_den = q_den = 0.0
    for row in rows:
        P, Q = system.interface_pressures(row)[k], row.flows[k]
        pex, qex = float(ie.P(row.t)), float(ie.Q(row.t))
        p_num = max(p_num, abs(P - pex))
        q_num = max(q_num, abs(Q - qex))
        p_den = max(p_den, abs(pex))
        q_den = max(q_den, abs(qex))
    return {"P": p_num / p_den, "Q": q_num / q_den}


@pytest.mark.parametrize("nonlinear", [False, True])
def test_peak_errors_need_no_series(nonlinear):
    case = coarse_case(nonlinear=nonlinear)
    with_series = run_to_periodicity(case, 0.05)
    bare = run_to_periodicity(case, 0.05, collect_series=False)
    assert with_series.converged and bare.converged and bare.series == []
    want = series_peak_errors(with_series, (1, 1, 1))
    got = peak_errors(bare, (1, 1, 1))
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


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


def test_convergence_study_checks_the_period_before_any_run(monkeypatch):
    from stokes0d import harness
    runs, builds = [], []
    monkeypatch.setattr(harness, "run_to_periodicity", lambda *a, **k: runs.append(a))

    def builder():
        builds.append(1)
        return coarse_case(nx=8, ny=2)

    with pytest.raises(ValueError, match="dt=0.003 does not divide the period"):
        convergence_study(builder, [0.05, 0.003])
    assert runs == [] and len(builds) == 1


@pytest.mark.parametrize("example, nonlinear", [(1, True), (3, False)])
def test_convergence_rows_carry_the_peak_errors_of_their_run(example, nonlinear):
    # benchmark 3 has two connections, so a row holds two interfaces' peaks
    study = convergence_study(lambda: coarse_case(example, nonlinear=nonlinear), [0.05])
    ((dt, err, periods, peaks),) = study.rows
    res = run_to_periodicity(coarse_case(example, nonlinear=nonlinear), dt,
                             collect_series=False)
    assert (dt, err, periods) == (0.05, res.errors, res.periods)
    ids = [c.interface_id for _, c in res.case.system.connections]
    assert list(peaks) == ids
    for interface_id in ids:
        want = peak_errors(res, interface_id)
        assert {k: v.hex() for k, v in peaks[interface_id].items()} == \
            {k: v.hex() for k, v in want.items()}


def test_stability_run_fails_when_the_energy_goes_nan():
    params = dataclasses.replace(params_for(1), R_b=float("nan"))
    case = build_case(1, nx=8, ny=2, zero_forcing=True, params=params)
    rep = stability_run(case, 1.0, 3)
    assert np.isnan(rep.max_increase) and np.isnan(rep.chain_violation)
    assert not rep.passed()


def test_energy_report_fails_where_the_circuit_energy_stops_being_a_norm():
    # nonlinear benchmark 1 from a negative volume: stage 2 takes omega below
    # -1/gamma1, where C_a and so U[1] = 1/C_a turn negative, in the 8th step
    case = coarse_case(1, nonlinear=True, zero_forcing=True)
    system = case.system
    start = dataclasses.replace(system.zero_state(), y=np.array([-1887.0, -0.167]))
    reports = [full_energy_report(case, start)]

    def observe(record):
        reports.append(full_energy_report(case, record.state))

    with pytest.raises(ValueError, match=r"^U\[1\] = -5\.52 is not positive at t=0\.008:"):
        run(system, start, StepConfig(1e-3, case.s_sub), 50, observers=(observe,))
    assert len(reports) == 8 and reports[0].total > 0


@pytest.mark.parametrize("n_steps", [0, -3])
def test_stability_run_needs_a_step(n_steps):
    # with no step the chain maxima stay at -inf, which passed() reads as a pass
    case = build_case(1, nx=8, ny=2, zero_forcing=True)
    with pytest.raises(ValueError, match=f"got steps={n_steps}$"):
        stability_run(case, 0.1, n_steps)


@pytest.fixture(scope="module")
def unforced_20x4():
    return {key: coarse_case(key[0], nonlinear=key[1], zero_forcing=True)
            for key in ((1, False), (1, True), (2, False), (3, False))}


@pytest.mark.parametrize("explicit_pi", [False, True])
@pytest.mark.parametrize("dt", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("key", [(1, False), (1, True), (2, False), (3, False)])
def test_stability_run_matches_full_energy_reports(unforced_20x4, key, dt, explicit_pi):
    """The stability driver's audit gives the bits of two energy reports and
    the stage-1 residual per step, folded the same way, for the scheme and
    for the lagged-pi control system."""
    case = unforced_20x4[key]
    system = CoupledSystem(case.system.domains, case.system.circuit, explicit_pi)
    n_steps = 60
    state = case.initial_state()
    e0 = full_energy_report(case, state).total
    fold = {"e_prev": e0, "inc": -np.inf, "chain": -np.inf, "resid": 0.0}

    def audit(record):
        e_mid = full_energy_report(case, record.intermediate).total
        e_new = full_energy_report(case, record.state).total
        _, _, rel = step1_energy_residual(case.system, record.previous,
                                          record.intermediate, dt)
        fold["inc"] = float(np.max([fold["inc"], e_new - fold["e_prev"]]))
        fold["chain"] = float(np.max([fold["chain"], e_mid - fold["e_prev"],
                                      e_new - e_mid]))
        fold["resid"] = float(np.max([fold["resid"], rel]))
        fold["e_prev"] = e_new

    run(system, state, StepConfig(dt, case.s_sub), n_steps, observers=(audit,))
    rep = stability_run(case, dt, n_steps, explicit_pi=explicit_pi)
    expected = [e0, fold["inc"], fold["chain"], fold["resid"]]
    got = [rep.e0, rep.max_increase, rep.chain_violation, rep.max_identity_residual]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
