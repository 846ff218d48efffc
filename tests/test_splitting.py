import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stokes0d import StepConfig, build_case, params_for, run, step1, step2
from stokes0d.analysis import energy_report, step1_energy_residual
from stokes0d.splitting import _dissection_keys


def normwise_backward_error(a, x, b):
    """||Ax - b|| / (||A|| ||x|| + ||b||) in the infinity norm."""
    anorm = np.max(abs(a).sum(axis=1))
    return np.max(np.abs(a @ x - b)) / (anorm * np.max(np.abs(x)) + np.max(np.abs(b)))


def coarse_case(example=1, **kw):
    kw.setdefault("nx", 20)
    kw.setdefault("ny", 4)
    return build_case(example, **kw)


def test_zero_state_zero_forcing_stays_zero():
    case = coarse_case(zero_forcing=True)
    state = case.system.zero_state()
    out = run(case.system, state, StepConfig(0.05, 5), 4)
    assert all(np.max(np.abs(v)) == 0.0 for v in out.velocities)
    assert all(np.max(np.abs(p)) == 0.0 for p in out.pressures)
    assert all(np.max(np.abs(y)) == 0.0 for y in out.ys)


def test_step1_interface_values_near_exact():
    # one tiny step from exact initial data: interface values move O(dt)+O(h^2)
    case = coarse_case()
    mid = step1(case.system, case.initial_state(), 1e-4)
    iv = mid.interfaces[(1, 1, 1)]
    assert abs(iv.P - 1035.7588823428846) <= 2e-2 * 1035.0
    assert abs(iv.Q - 4.0) <= 2e-2 * 4.0
    # omega (volume state) exactly frozen through stage 1
    assert mid.ys[0][1] == case.initial_state().ys[0][1]


def test_step1_consistency_relations():
    case = coarse_case()
    state = case.initial_state()
    for _ in range(3):
        mid = step1(case.system, state, 0.01)
        for d, _, conn in case.system.connections:
            iv = mid.interfaces[conn.interface_id]
            dom = case.system.domains[d]
            flux = float(dom.ops.flux[conn.interface_id] @ mid.velocities[d])
            assert abs(iv.Q - flux) <= 1e-10 * max(1.0, abs(iv.Q))
            assert abs(iv.P - iv.pi - conn.resistance * iv.Q) \
                <= 1e-10 * max(1.0, abs(iv.P))
        state = step2(case.system, mid, 0.01, 5)


def test_mass_conservation_of_stage1_solution():
    # stage-1 velocities are discretely divergence free and vanish on the
    # walls, so all boundary fluxes (interfaces plus external side) cancel
    case = coarse_case()
    state = case.initial_state()
    for _ in range(3):
        mid = step1(case.system, state, 0.01)
        for d, dom in enumerate(case.system.domains):
            v = mid.velocities[d]
            total = float(dom.ops.sigma @ v)
            total += sum(float(dom.ops.flux[conn.interface_id] @ v)
                         for dc, _, conn in case.system.connections if dc == d)
            assert abs(total) <= 1e-10
        state = step2(case.system, mid, 0.01, 5)


def test_step1_flow_direction_from_circuit_pressure():
    # quiescent fluid, pressurized circuit node: flow enters the domain
    case = coarse_case(zero_forcing=True)
    state = case.system.zero_state()
    state.ys[0][0] = 100.0
    mid = step1(case.system, state, 0.01)
    iv = mid.interfaces[(1, 1, 1)]
    assert iv.Q < 0.0
    _, _, rel = step1_energy_residual(case.system, state, mid, 0.01)
    assert rel <= 1e-8


def test_step1_energy_identity_with_forcing():
    case = coarse_case()
    state = case.initial_state()
    for _ in range(5):
        mid = step1(case.system, state, 0.01)
        _, _, rel = step1_energy_residual(case.system, state, mid, 0.01)
        assert rel <= 1e-8
        state = step2(case.system, mid, 0.01, 5)


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
    f = solver.factorization
    solves = []

    def recording_solve(rhs):
        x = type(f).solve(f, rhs)
        solves.append((rhs, x))
        return x

    f.solve = recording_solve
    state = case.initial_state()
    mid = step1(case.system, state, dt)
    _, _, rel = step1_energy_residual(case.system, state, mid, dt)
    assert rel <= 1e-8
    (rhs, x), = solves
    assert normwise_backward_error(solver.matrix, x, rhs) <= 1e-12


@pytest.mark.parametrize("explicit_pi", [False, True])
def test_stage1_matrix_matches_block_definition(explicit_pi):
    # benchmark 2: two domains, each with one connection to the same circuit
    case = coarse_case(2)
    dt = 0.01
    solver = case.system.step1_solver(dt, explicit_pi)
    x = np.random.default_rng(5).standard_normal(solver.n)
    expected = np.zeros(solver.n)
    for d, dom in enumerate(case.system.domains):
        free = dom.space.free
        v = x[solver.v_off[d]:solver.v_off[d] + len(free)]
        p = x[solver.p_off[d]:solver.p_off[d] + dom.space.n_pressure]
        M = dom.ops.M.tocsr()[free][:, free]
        K = dom.ops.K.tocsr()[free][:, free]
        D = dom.ops.D.tocsr()[:, free]
        expected[solver.v_off[d]:solver.v_off[d] + len(free)] = (
            dom.rho / dt * (M @ v) + dom.mu * (K @ v) - D.T @ p)
        expected[solver.p_off[d]:solver.p_off[d] + len(p)] = D @ v
    for b, (d, _, conn) in enumerate(case.system.connections):
        dom = case.system.domains[d]
        free = dom.space.free
        vo = solver.v_off[d]
        phi = dom.ops.flux[conn.interface_id][free]
        R, C = conn.resistance, conn.capacitance
        q, pi = x[solver.q_off[b]], x[solver.pi_off[b]]
        expected[vo:vo + len(free)] += R * q * phi
        if not explicit_pi:
            expected[vo:vo + len(free)] += pi * phi
        expected[solver.q_off[b]] = -phi @ x[vo:vo + len(free)] + q
        expected[solver.pi_off[b]] = -dt / C * q + pi
    got = solver.matrix @ x
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_step2_preserves_fields_bitwise():
    case = coarse_case()
    mid = step1(case.system, case.initial_state(), 0.01)
    new = step2(case.system, mid, 0.01, 5)
    assert new.velocities[0] is mid.velocities[0]
    assert new.pressures[0] is mid.pressures[0]
    assert new.t == mid.t + 0.01


def test_energy_chain_three_decades_of_dt():
    case = coarse_case(zero_forcing=True)
    for dt in (0.1, 1.0, 10.0):
        state = case.initial_state()
        e = energy_report(case.system, state).total
        e0 = e
        for _ in range(10):
            mid = step1(case.system, state, dt)
            e_mid = energy_report(case.system, mid).total
            state = step2(case.system, mid, dt, 5)
            e_new = energy_report(case.system, state).total
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
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.ys, b.ys))


def test_run_one_step_equals_step1_then_step2():
    case = coarse_case()
    cfg = StepConfig(0.02, 4)
    s1 = run(case.system, case.initial_state(), cfg, 1)
    s2 = step2(case.system, step1(case.system, case.initial_state(), cfg.dt),
               cfg.dt, cfg.s_sub)
    assert all(np.array_equal(x, y) for x, y in zip(s1.velocities, s2.velocities))
    assert all(np.array_equal(x, y) for x, y in zip(s1.ys, s2.ys))


def test_observers_see_each_step():
    case = coarse_case()
    seen = []

    def obs(record):
        seen.append((record.step, record.state.t, record.state.interfaces[(1, 1, 1)].Q,
                     energy_report(case.system, record.state).total))

    run(case.system, case.initial_state(), StepConfig(0.01, 5), 3, observers=(obs,))
    assert [s[0] for s in seen] == [0, 1, 2]
    assert np.allclose([s[1] for s in seen], [0.01, 0.02, 0.03])
    assert all(np.isfinite(s[3]) for s in seen)


def test_multidomain_example2_runs():
    case = coarse_case(2)
    state = run(case.system, case.initial_state(), StepConfig(0.01, 10), 5)
    assert len(state.velocities) == 2
    for _, _, conn in case.system.connections:
        iv = state.interfaces[conn.interface_id]
        assert np.isfinite(iv.P) and np.isfinite(iv.Q)
    # both interfaces feed one circuit; node pressures track the y entries
    assert state.interfaces[(1, 1, 1)].pi != state.interfaces[(2, 1, 1)].pi


def test_stage1_failure_identifies_interfaces(monkeypatch):
    case = coarse_case()
    solver = case.system.step1_solver(0.01)

    def boom(rhs):
        raise RuntimeError("synthetic solver breakdown")

    monkeypatch.setattr(solver.factorization, "solve", boom)
    with pytest.raises(RuntimeError, match=r"\(1, 1, 1\)"):
        step1(case.system, case.initial_state(), 0.01)


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
    order = system.step1_order
    assert np.array_equal(np.sort(order), np.arange(solver.n))
    n_border = 2 * len(system.connections)
    assert np.array_equal(order[solver.n - n_border:],
                          np.arange(solver.n - n_border, solver.n))
    a = solver.matrix.tocoo()
    start = 0
    for d, dom in enumerate(system.domains):
        space = dom.space
        node = np.concatenate([space.free % space.n_scalar, np.arange(space.n_pressure)])
        kind = np.repeat([0, 1], [len(space.free), space.n_pressure])
        group = _dissection_keys(space.node_grid())[node]
        local = order[start:start + len(node)] - solver.v_off[d]
        start += len(node)
        assert np.array_equal(np.sort(local), np.arange(len(node)))
        # groups in ascending key order, each one's velocities before its pressures
        g, k = group[local], kind[local]
        assert np.all((np.diff(g) > 0) | ((np.diff(g) == 0) & (np.diff(k) >= 0)))
        # no entry couples the two halves of a box: where two coupled unknowns'
        # dissection paths part, one of them lies on the separator
        inside = ((a.row >= solver.v_off[d]) & (a.row < solver.v_off[d] + len(node))
                  & (a.col >= solver.v_off[d]) & (a.col < solver.v_off[d] + len(node)))
        digits = _base3_digits(group)
        di = digits[a.row[inside] - solver.v_off[d]]
        dj = digits[a.col[inside] - solver.v_off[d]]
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
    perms = [case.system.step1_solver(dt).factorization.perm for dt in (0.1, 1.0, 10.0)]
    assert len(calls) == len(case.system.domains)
    assert all(p is case.system.step1_order for p in perms)


def test_binding_validation():
    from stokes0d.splitting import CoupledSystem
    case = coarse_case()
    dom = case.system.domains[0]
    circ = case.system.circuits[0]
    conn = circ.connections[0]
    unwired = dataclasses.replace(circ, connections=())
    with pytest.raises(ValueError, match="do not match"):
        CoupledSystem([dom], [unwired])         # mesh interface left unconnected
    stray = dataclasses.replace(conn, interface_id=(9, 9, 9))
    with pytest.raises(ValueError, match="no flow domain"):
        CoupledSystem([dom], [dataclasses.replace(circ, connections=(stray,))])
    # (1, 1, 1) held by the second circuit: its m names the first
    with pytest.raises(ValueError, match="held by circuit 2"):
        CoupledSystem([dom], [unwired, circ])
    wired = CoupledSystem([dom], [circ])
    assert wired.connections == [(0, 0, conn)]


def _assert_states_equal(a, b):
    assert a.t == b.t and a.interfaces == b.interfaces
    for xs, ys in ((a.velocities, b.velocities), (a.pressures, b.pressures),
                   (a.ys, b.ys)):
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
