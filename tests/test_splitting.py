import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stokes0d import StepConfig, build_case, cases, params_for, run, splitting
from stokes0d.analysis import energy_report, step1_energy_residual
from stokes0d.sparse import LUFactorization
from stokes0d.splitting import CoupledSystem, _dissection_keys


def normwise_backward_error(a, x, b):
    """||Ax - b|| / (||A|| ||x|| + ||b||) in the infinity norm."""
    anorm = np.max(abs(a).sum(axis=1))
    return np.max(np.abs(a @ x - b)) / (anorm * np.max(np.abs(x)) + np.max(np.abs(b)))


def coarse_case(example=1, **kw):
    kw.setdefault("nx", 20)
    kw.setdefault("ny", 4)
    return build_case(example, **kw)


def step_records(case, dt, n_steps, state=None, s_sub=5):
    """The StepRecords of a run of n_steps from `state` (the exact initial
    state by default)."""
    records = []
    run(case.system, case.initial_state() if state is None else state,
        StepConfig(dt, s_sub), n_steps, observers=(records.append,))
    return records


def total_energy(case, state):
    system = case.system
    return energy_report(system, state, 1e-6 * case.tau).total


def test_zero_state_zero_forcing_stays_zero():
    case = coarse_case(zero_forcing=True)
    state = case.system.zero_state()
    out = run(case.system, state, StepConfig(0.05, 5), 4)
    assert all(np.max(np.abs(v)) == 0.0 for v in out.velocities)
    assert all(np.max(np.abs(p)) == 0.0 for p in out.pressures)
    assert np.max(np.abs(out.y)) == 0.0


def test_step1_interface_values_near_exact():
    # one tiny step from exact initial data: interface values move O(dt)+O(h^2)
    case = coarse_case()
    mid = step_records(case, 1e-4, 1)[0].intermediate
    (P,), (Q,) = case.system.interface_pressures(mid), mid.flows
    assert abs(P - 1035.7588823428846) <= 2e-2 * 1035.0
    assert abs(Q - 4.0) <= 2e-2 * 4.0
    # omega (volume state) exactly frozen through stage 1
    assert mid.y[1] == case.initial_state().y[1]


def test_step1_consistency_relations():
    case = coarse_case()
    for rec in step_records(case, 0.01, 3):
        mid = rec.intermediate
        P = case.system.interface_pressures(mid)
        for k, (d, conn) in enumerate(case.system.connections):
            Q, pi = mid.flows[k], mid.node_pressures[k]
            dom = case.system.domains[d]
            flux = float(dom.ops.flux[conn.interface_id] @ mid.velocities[d])
            assert abs(Q - flux) <= 1e-10 * max(1.0, abs(Q))
            assert abs(P[k] - pi - conn.resistance * Q) <= 1e-10 * max(1.0, abs(P[k]))
            # stage 1 writes the node pressure into its place in y
            assert mid.y[conn.pi_index] == pi


def test_mass_conservation_of_stage1_solution():
    # stage-1 velocities are discretely divergence free and vanish on the
    # walls, so all boundary fluxes (interfaces plus external side) cancel
    case = coarse_case()
    for rec in step_records(case, 0.01, 3):
        for d, dom in enumerate(case.system.domains):
            v = rec.intermediate.velocities[d]
            total = float(dom.ops.sigma @ v)
            total += sum(float(dom.ops.flux[conn.interface_id] @ v)
                         for dc, conn in case.system.connections if dc == d)
            assert abs(total) <= 1e-10


def test_step1_flow_direction_from_circuit_pressure():
    # quiescent fluid, pressurized circuit node: flow enters the domain
    case = coarse_case(zero_forcing=True)
    zero = case.system.zero_state()
    y = zero.y.copy()
    y[0] = 100.0
    state = dataclasses.replace(zero, y=y)
    mid = step_records(case, 0.01, 1, state)[0].intermediate
    assert mid.flows[0] < 0.0
    _, _, rel = step1_energy_residual(case.system, state, mid, 0.01)
    assert rel <= 1e-8


@pytest.mark.parametrize("example, nonlinear",
                         [(1, False), (1, True), (2, False), (3, False)])
def test_step1_energy_identity_with_forcing(example, nonlinear):
    # the load power reads the merged load alone: body force and, on
    # benchmark 1's one and benchmark 2's two external sides, the traction
    case = coarse_case(example, nonlinear=nonlinear)
    for rec in step_records(case, 0.01, 5):
        _, _, rel = step1_energy_residual(case.system, rec.previous, rec.intermediate, 0.01)
        assert rel <= 1e-8


@settings(max_examples=25, deadline=None)
# without the fallback, diagonal pivots leave an identity residual of 2e-8 to
# 2e-7 at these three, and a check bound of 3e-11 let the first two through
@example(example=1, log_rho=-2.0, log_mu=-3.0, log_dt=3.0)
@example(example=1, log_rho=-3.0, log_mu=-3.0, log_dt=3.0)
@example(example=2, log_rho=-3.0, log_mu=-3.0, log_dt=3.0)
@given(example=st.sampled_from([1, 2, 3]),
       log_rho=st.floats(-3, 3), log_mu=st.floats(-3, 3), log_dt=st.floats(-4, 3))
def test_step1_identity_and_solve_accuracy_any_scaling(example, log_rho, log_mu, log_dt):
    base = params_for(example)
    params = base.replace(rho=base.rho * 10.0 ** log_rho, mu=base.mu * 10.0 ** log_mu)
    case = coarse_case(example, params=params)
    dt = 10.0 ** log_dt
    solver = case.system.step1_solver(dt)
    real_solve = LUFactorization.solve
    solves = []

    def recording_solve(f, rhs):
        x = real_solve(f, rhs)
        solves.append((rhs, x))
        return x

    with mock.patch.object(LUFactorization, "solve", recording_solve):
        rec, = step_records(case, dt, 1, s_sub=case.s_sub)
    _, _, rel = step1_energy_residual(case.system, rec.previous, rec.intermediate, dt)
    assert rel <= 1e-8
    (rhs, x), = solves
    assert normwise_backward_error(solver.matrix, x, rhs) <= 1e-12


@pytest.mark.parametrize("explicit_pi", [False, True])
def test_stage1_matrix_matches_block_definition(explicit_pi):
    # benchmark 2: two domains, each with one connection to the same circuit
    case = coarse_case(2)
    dt = 0.01
    system = CoupledSystem(case.system.domains, case.system.circuit, explicit_pi)
    solver = system.step1_solver(dt)
    layout = system.step1_layout
    # the control lags each connection's pi coupling on the right-hand side
    assert len(solver.lagged) == (len(system.connections) if explicit_pi else 0)
    x = np.random.default_rng(5).standard_normal(solver.n)
    expected = np.zeros(solver.n)
    for d, dom in enumerate(case.system.domains):
        free = dom.space.free
        vel, prs = layout.velocity[d], layout.pressure[d]
        v, p = x[vel], x[prs]
        M = dom.ops.M.tocsr()[free][:, free]
        K = dom.ops.K.tocsr()[free][:, free]
        D = dom.ops.D.tocsr()[:, free]
        expected[vel] = dom.rho / dt * (M @ v) + dom.mu * (K @ v) - D.T @ p
        expected[prs] = D @ v
    for b, (d, conn) in enumerate(case.system.connections):
        dom = case.system.domains[d]
        vel = layout.velocity[d]
        phi = dom.ops.flux[conn.interface_id][dom.space.free]
        R, C = conn.resistance, conn.capacitance
        q, pi = x[layout.q[b]], x[layout.pi[b]]
        expected[vel] += R * q * phi
        if not explicit_pi:
            expected[vel] += pi * phi
        expected[layout.q[b]] = -phi @ x[vel] + q
        expected[layout.pi[b]] = -dt / C * q + pi
    got = solver.matrix @ x
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_step2_preserves_fields_bitwise():
    case = coarse_case()
    rec, = step_records(case, 0.01, 1)
    mid, new = rec.intermediate, rec.state
    assert new.velocities[0] is mid.velocities[0]
    assert new.pressures[0] is mid.pressures[0]
    assert new.t == mid.t + 0.01


def test_energy_chain_three_decades_of_dt():
    case = coarse_case(zero_forcing=True)
    for dt in (0.1, 1.0, 10.0):
        e = e0 = total_energy(case, case.initial_state())
        for rec in step_records(case, dt, 10):
            e_mid = total_energy(case, rec.intermediate)
            e_new = total_energy(case, rec.state)
            assert e_mid <= e + 1e-12 * e0
            assert e_new <= e_mid + 1e-12 * e0
            e = e_new


def test_run_zero_steps_and_determinism():
    case = coarse_case()
    state = case.initial_state()
    out = run(case.system, state, StepConfig(0.01, 5), 0)
    assert out is state

    a = run(case.system, case.initial_state(), StepConfig(0.01, 5), 10)
    b = run(case.system, case.initial_state(), StepConfig(0.01, 5), 10)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.velocities, b.velocities))
    assert a.y.tobytes() == b.y.tobytes()


def test_observers_see_each_step():
    case = coarse_case()
    seen = []

    def obs(record):
        seen.append((record.step, record.state.t, record.state.flows[0],
                     energy_report(case.system, record.state, 1e-6 * case.tau).total))

    run(case.system, case.initial_state(), StepConfig(0.01, 5), 3, observers=(obs,))
    assert [s[0] for s in seen] == [0, 1, 2]
    assert np.allclose([s[1] for s in seen], [0.01, 0.02, 0.03])
    assert all(np.isfinite(s[3]) for s in seen)


def test_multidomain_example2_runs():
    case = coarse_case(2)
    state = run(case.system, case.initial_state(), StepConfig(0.01, 10), 5)
    assert len(state.velocities) == 2
    assert len(state.flows) == len(state.node_pressures) == 2
    assert np.all(np.isfinite(case.system.interface_pressures(state)))
    assert np.all(np.isfinite(state.flows))
    # both interfaces feed one circuit; node pressures track the y entries
    assert state.node_pressures[0] != state.node_pressures[1]


def test_stage1_failure_identifies_interfaces(monkeypatch):
    case = coarse_case()
    solver = case.system.step1_solver(0.01)

    def boom(f, rhs):
        raise RuntimeError("synthetic solver breakdown")

    assert type(solver.factorization) is LUFactorization
    monkeypatch.setattr(LUFactorization, "solve", boom)
    with pytest.raises(RuntimeError, match=r"\(1, 1, 1\)"):
        run(case.system, case.initial_state(), StepConfig(0.01, 5), 1)


def test_dissection_of_a_line_of_nodes():
    # cut at the vertex line 2; neither half has an even line strictly inside
    keys = _dissection_keys(np.column_stack([np.arange(5), np.zeros(5, dtype=int)]))
    assert list(np.argsort(keys, kind="stable")) == [0, 1, 3, 4, 2]


def _base3_digits(keys):
    width = 1
    while 3 ** width <= keys.max():
        width += 1
    return keys[:, None] // 3 ** np.arange(width - 1, -1, -1) % 3


@pytest.mark.parametrize("example, nx, ny", [(1, 20, 4), (2, 7, 3), (3, 13, 5)])
def test_step1_order_is_a_nested_dissection(example, nx, ny):
    system = coarse_case(example, nx=nx, ny=ny).system
    solver = system.step1_solver(0.01)
    layout = system.step1_layout
    assert layout.n == solver.n
    n_border = 2 * len(system.connections)
    assert np.array_equal(np.column_stack([layout.q, layout.pi]).ravel(),
                          np.arange(solver.n - n_border, solver.n))
    a = solver.matrix.tocoo()
    start = 0
    for d, dom in enumerate(system.domains):
        space = dom.space
        node = np.concatenate([space.free % space.n_scalar, np.arange(space.n_pressure)])
        kind = np.repeat([0, 1], [len(space.free), space.n_pressure])
        group = _dissection_keys(space.node_grid())[node]
        position = np.concatenate([layout.velocity[d], layout.pressure[d]])
        assert np.array_equal(np.sort(position), start + np.arange(len(node)))
        local = np.argsort(position)    # the unknown at each position, in order
        # groups in ascending key order, each one's velocities before its pressures
        g, k = group[local], kind[local]
        assert np.all((np.diff(g) > 0) | ((np.diff(g) == 0) & (np.diff(k) >= 0)))
        # no entry couples the two halves of a box: where two coupled unknowns'
        # dissection paths part, one of them lies on the separator
        inside = ((a.row >= start) & (a.row < start + len(node))
                  & (a.col >= start) & (a.col < start + len(node)))
        digits = _base3_digits(group)
        di = digits[local[a.row[inside] - start]]
        dj = digits[local[a.col[inside] - start]]
        start += len(node)
        parted = np.any(di != dj, axis=1)
        first = np.argmax(di != dj, axis=1)[parted]
        rows = np.arange(len(di))[parted]
        assert parted.any()
        assert np.all((di[rows, first] == 2) | (dj[rows, first] == 2))


def test_stability_sweep_shares_one_step1_order(monkeypatch):
    from stokes0d import harness, splitting
    calls = []
    real = splitting._dissection_keys

    def counted(grid):
        calls.append(len(grid))
        return real(grid)

    monkeypatch.setattr(splitting, "_dissection_keys", counted)
    case = coarse_case(zero_forcing=True, nx=8, ny=2)
    for dt in (0.1, 1.0, 10.0):
        harness.stability_run(case, dt, 2)
    layouts = [case.system.step1_solver(dt).layout for dt in (0.1, 1.0, 10.0)]
    assert len(calls) == len(case.system.domains)
    assert all(layout is case.system.step1_layout for layout in layouts)
    # the lagged-pi control numbers its unknowns the same way
    control = CoupledSystem(case.system.domains, case.system.circuit, explicit_pi=True)
    for field in dataclasses.fields(case.system.step1_layout):
        want = getattr(case.system.step1_layout, field.name)
        got = getattr(control.step1_solver(0.1).layout, field.name)
        if isinstance(want, list):
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), field.name
        else:
            assert np.array_equal(got, want), field.name


def test_binding_validation():
    from stokes0d.splitting import CoupledSystem
    case = coarse_case()
    dom = case.system.domains[0]
    circ = case.system.circuit
    conn = circ.connections[0]
    unwired = dataclasses.replace(circ, connections=())
    with pytest.raises(ValueError, match="do not match"):
        CoupledSystem([dom], unwired)           # mesh interface left unconnected
    stray = dataclasses.replace(conn, interface_id=(9, 9, 9))
    with pytest.raises(ValueError, match="no flow domain"):
        CoupledSystem([dom], dataclasses.replace(circ, connections=(stray,)))
    twice = (conn, dataclasses.replace(conn, pi_index=1))
    with pytest.raises(ValueError, match="connected more than once"):
        CoupledSystem([dom], dataclasses.replace(circ, connections=twice))
    wired = CoupledSystem([dom], circ)
    assert wired.connections == [(0, conn)]


def _assert_states_equal(a, b):
    assert a.t == b.t
    for xs, ys in ((a.velocities, b.velocities), (a.mass_products, b.mass_products),
                   (a.pressures, b.pressures), ([a.y], [b.y]),
                   ([a.flows, a.node_pressures], [b.flows, b.node_pressures])):
        assert len(xs) == len(ys)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(xs, ys))


@pytest.mark.parametrize("example, nonlinear", [(1, True), (2, False), (3, False)])
def test_run_never_mutates_a_state(example, nonlinear):
    # observers, the period tracker and the series keep the states they are
    # handed without copying them
    case = coarse_case(example, nonlinear=nonlinear, nx=8, ny=2)
    seen = []

    def keep(record):
        for state in (record.previous, record.intermediate, record.state):
            seen.append((state, copy.deepcopy(state)))

    run(case.system, case.initial_state(), StepConfig(0.01, case.s_sub), 20,
        observers=(keep,))
    assert len(seen) == 60
    for state, snapshot in seen:
        _assert_states_equal(state, snapshot)


@pytest.mark.parametrize("block", [2048, 3])
@pytest.mark.parametrize("s_sub", [1, 5, 10])
@pytest.mark.parametrize("example, nonlinear", [(1, True), (2, False), (3, False)])
def test_run_equals_chained_steps_bytewise(monkeypatch, example, nonlinear, s_sub, block):
    # run evaluates the time-only inputs of a block of steps at once; a run
    # of one step evaluates them for that step alone: the two must agree to
    # the last bit, also across block boundaries and from a clock that is not 0
    monkeypatch.setattr(splitting, "BLOCK_STEPS", block)
    case = coarse_case(example, nonlinear=nonlinear, nx=8, ny=2)
    sys_, config = case.system, StepConfig(0.03, s_sub)
    start = dataclasses.replace(case.initial_state(), t=0.37)
    seen = []
    got = run(case.system, start, config, 7, observers=(seen.append,))
    state = start
    for rec in seen:
        one = []
        state = run(sys_, state, config, 1, observers=(one.append,))
        _assert_states_equal(rec.intermediate, one[0].intermediate)
        _assert_states_equal(rec.state, state)
    assert len(seen) == 7 and [r.step for r in seen] == list(range(7))
    _assert_states_equal(got, state)


def test_step_times_are_the_steps_clocks():
    t, times = 0.37, splitting.step_times(0.37, 0.03, 5)
    for k in range(6):
        assert times[k] == t
        t = t + 0.03


@pytest.mark.parametrize("example, nonlinear",
                         [(1, False), (1, True), (2, False), (3, False)])
def test_time_only_inputs_broadcast_bitwise(example, nonlinear):
    # the load's coefficients, the external pressure's among them, take an
    # array of times; each entry equals the scalar evaluation bitwise, and
    # the shape is np.shape(t)
    case = coarse_case(example, nonlinear=nonlinear, nx=4, ny=2)
    times = np.linspace(-0.3, 2.9, 12).reshape(3, 4)
    scalars = times.ravel().tolist()
    for dom, dex in zip(case.system.domains, case.exact.domains):
        pbars = [] if dex.pbar is None else [dex.pbar]
        coefficient_fns = [c for c, _ in dex.force] + dom.body_load.coeffs
        # one coefficient per force term, and one for the external side
        assert len(dom.body_load.coeffs) == len(dex.force) + len(pbars)
        for f in pbars + coefficient_fns:
            values = np.asarray(f(times))
            assert values.shape == times.shape
            assert values.ravel().tobytes() == np.array(
                [f(t) for t in scalars]).tobytes()
        rows = dom.body_load.coefficients(times)
        assert rows.shape == times.shape + (len(dom.body_load.coeffs),)
        for row, t in zip(rows.reshape(-1, rows.shape[-1]), scalars):
            assert row.tobytes() == dom.body_load.coefficients(t).tobytes()
            assert dom.body_load.vector(row).tobytes() == dom.body_load(t).tobytes()
    assert (example == 3) == all(dex.pbar is None for dex in case.exact.domains)


def test_time_only_inputs_of_the_wrong_shape_are_rejected():
    case = coarse_case(1, nx=4, ny=2)
    sys_ = case.system
    ends = splitting.step_times(0.0, 0.1, 3)[1:]
    dom, spec = sys_.domains[0], sys_.circuit
    # an external pressure that does not broadcast: the term after the two
    # force terms
    load = cases.TimeSeparableLoad(dom.space, dom.ops, case.exact.domains[0].force,
                                   lambda t: 1.0)
    with pytest.raises(ValueError,
                       match=r"time coefficient 2 of times shaped \(3,\) has shape \(\)"):
        splitting.stage1_loads(splitting.CoupledSystem(
            [dataclasses.replace(dom, body_load=load)], spec), ends)
    dom.body_load.coeffs.append(lambda t: 2.0)
    with pytest.raises(ValueError,
                       match=r"time coefficient 3 of times shaped \(3,\) has shape \(\)"):
        splitting.stage1_loads(sys_, ends)
    flat = dataclasses.replace(spec, s=lambda t: np.zeros(spec.dim))
    with pytest.raises(ValueError,
                       match=r"circuit s\(t\) of times shaped \(3, 4\) has shape \(2,\)"):
        splitting.stage2_sources(splitting.CoupledSystem([dom], flat), ends, 0.1, 4)
