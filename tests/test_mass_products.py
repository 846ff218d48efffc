"""One mass product per state: whatever forms a state's velocities also
forms their M v (the initial and zero states, stage 1), stage 2 hands it on
with the velocities, and stage 1, the period tracker, the series and the
stability audit read it from the state, each giving the bits it gives with
M v formed anew.  A step with series makes five sparse products: the new
state's M v (stage 1), the tracker's M d, Mp d and Mp prev, and the series'
K v."""
import dataclasses

import numpy as np
import pytest
import scipy.sparse._sparsetools as sparsetools

from stokes0d import StepConfig, analysis, build_case, run, splitting
from stokes0d.analysis import energy_report, kinetic_energy, step1_energy_residual
from stokes0d.circuits import energy
from stokes0d.harness import _PeriodTracker, run_to_periodicity

CASES = [(1, True), (2, False), (3, False)]


def _hex(report):
    return [float(x).hex() for x in vars(report).values()]


def _records(example, nonlinear, dt=0.05, n_steps=6, nx=8, ny=2):
    case = build_case(example, nonlinear=nonlinear, nx=nx, ny=ny)
    records = []
    run(case.system, case.initial_state(), StepConfig(dt, case.s_sub), n_steps,
        observers=(records.append,))
    return case, records


def _assert_formed_anew(system, state):
    assert len(state.mass_products) == len(system.domains)
    for dom, v, mv in zip(system.domains, state.velocities, state.mass_products):
        assert mv.tobytes() == (dom.ops.M @ v).tobytes()


@pytest.mark.parametrize("nx, ny", [(20, 4), (100, 20)])
@pytest.mark.parametrize("example, nonlinear", CASES)
def test_free_rows_of_the_mass_product_are_the_free_block_product(example, nonlinear, nx, ny):
    # csr_matvec sums each row in stored order, and the wall entries of a
    # velocity that a step computes are exact zeros
    case = build_case(example, nonlinear=nonlinear, nx=nx, ny=ny)
    for dom in case.system.domains:
        free = dom.space.free
        v = np.random.default_rng(len(free)).standard_normal(dom.space.n_velocity)
        v[dom.space.constrained] = 0.0
        Mff = dom.ops.M.tocsr()[free][:, free]
        assert (dom.ops.M @ v)[free].tobytes() == (Mff @ v[free]).tobytes()


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_initial_and_zero_states_carry_their_mass_products(example, nonlinear):
    case = build_case(example, nonlinear=nonlinear, nx=8, ny=2)
    _assert_formed_anew(case.system, case.initial_state())
    _assert_formed_anew(case.system, case.system.zero_state())


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_records_carry_the_mass_products_of_their_new_state(example, nonlinear):
    case, records = _records(example, nonlinear)
    for rec in records:
        _assert_formed_anew(case.system, rec.intermediate)
        # stage 2 hands on the velocities and their products unchanged
        assert rec.state.velocities is rec.intermediate.velocities
        assert rec.state.mass_products is rec.intermediate.mass_products


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_states_are_immutable(example, nonlinear):
    # a velocity assigned in place would leave its mass product stale, and
    # the energies would read the old one
    case, records = _records(example, nonlinear, n_steps=2)
    states = [case.initial_state()] + [s for rec in records
                                       for s in (rec.previous, rec.intermediate, rec.state)]
    for state in states:
        for name in ("velocities", "pressures", "mass_products"):
            arrays = getattr(state, name)
            with pytest.raises(TypeError):
                arrays[0] = 2.0 * arrays[0]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, name, arrays)
        _assert_formed_anew(case.system, state)


def _arrays(state):
    """Every array of a state: fields, circuit state, connection values and
    mass products (none on a state the period tracker keeps)."""
    return [*state.velocities, *state.pressures, state.y, state.flows,
            state.node_pressures, *(state.mass_products or ())]


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_every_state_array_is_read_only(example, nonlinear):
    # a velocity written in place would leave the mass product formed from
    # it stale, and the kinetic energy would read the old one
    case, records = _records(example, nonlinear, n_steps=2)
    res = run_to_periodicity(case, 0.25, max_periods=1, collect_series=False)
    n_dom, n_conn = len(case.system.domains), len(case.system.connections)
    carrying = [case.initial_state(), case.system.zero_state()] + [
        s for rec in records for s in (rec.previous, rec.intermediate, rec.state)]
    for states, n_arrays in ((carrying, 3 * n_dom + 3), (res.last_period, 2 * n_dom + 3)):
        for state in states:
            arrays = _arrays(state)
            assert len(arrays) == n_arrays
            assert len(state.flows) == len(state.node_pressures) == n_conn
            assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        case.initial_state().velocities[0][:] *= 2.0


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_tiny_velocities_take_the_scaled_products(example, nonlinear):
    # a decayed state's M v and K v: the products of the exactly rescaled
    # velocities, rounded once, with no subnormal arithmetic
    case = build_case(example, nonlinear=nonlinear, nx=8, ny=2)
    sys_ = case.system
    rng = np.random.default_rng(example)
    tiny = [np.ldexp(rng.standard_normal(dom.space.n_velocity), -1060)
            for dom in sys_.domains]

    def scaled(A, w):
        return np.ldexp(A @ np.ldexp(w, 1060), -1060)

    products = sys_.mass_products(tiny)
    for dom, w, mw in zip(sys_.domains, tiny, products):
        assert mw.tobytes() == scaled(dom.ops.M, w).tobytes()
    state = dataclasses.replace(sys_.zero_state(), velocities=tuple(tiny),
                                mass_products=products)
    d_omega = 0.0
    for dom, w in zip(sys_.domains, tiny):
        d_omega += dom.mu * float(w @ scaled(dom.ops.K, w))
    assert energy_report(sys_, state, 1e-6 * case.tau).d_omega.hex() == d_omega.hex()


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_stage1_reads_only_the_free_rows_of_a_handed_product(monkeypatch, example,
                                                             nonlinear):
    # stage 1 of every step of a run, the first included, gives the same
    # bits from a state that carries only Mff v[free] (NaN on the walls)
    handed = []
    real = splitting.step1

    def spy(system, state, dt, loads):
        handed.append((state, loads))
        return real(system, state, dt, loads)

    monkeypatch.setattr(splitting, "step1", spy)
    case, records = _records(example, nonlinear)
    sys_ = case.system
    solver = sys_.step1_solver(0.05)
    assert len(handed) == len(records)
    for (state, loads), rec in zip(handed, records):
        free_block = []
        for dom, v in zip(sys_.domains, state.velocities):
            free = dom.space.free
            w = np.full(dom.space.n_velocity, np.nan)
            w[free] = dom.ops.M.tocsr()[free][:, free] @ v[free]
            free_block.append(w)
        got = solver.solve(dataclasses.replace(state, mass_products=tuple(free_block)),
                           loads)
        want = rec.intermediate
        assert [v.tobytes() for v in got.velocities] == \
            [v.tobytes() for v in want.velocities]
        assert [p.tobytes() for p in got.pressures] == \
            [p.tobytes() for p in want.pressures]
        assert [a.tobytes() for a in (got.y, got.flows, got.node_pressures)] == \
            [a.tobytes() for a in (want.y, want.flows, want.node_pressures)]


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_observers_give_the_same_bits_with_and_without_handed_products(example, nonlinear):
    # each state's own M v against M v formed anew from its velocities
    case, records = _records(example, nonlinear, dt=0.25, n_steps=24)
    sys_, dt_fd = case.system, 1e-6 * case.tau

    def fresh(state):
        return dataclasses.replace(state, mass_products=tuple(
            dom.ops.M @ v for dom, v in zip(sys_.domains, state.velocities)))

    carried, alone = _PeriodTracker(sys_, 8), _PeriodTracker(sys_, 8)
    carried.push(case.initial_state())
    alone.push(fresh(case.initial_state()))
    for rec in records:
        carried.push(rec.state)
        alone.push(fresh(rec.state))
        assert _hex(energy_report(sys_, rec.state, dt_fd)) == \
            _hex(energy_report(sys_, fresh(rec.state), dt_fd))
        # the stability driver's audit: one kinetic energy of the intermediate
        # state, which stage 2 hands on, and the stage-1 identity
        e_flow = kinetic_energy(sys_, rec.intermediate)
        e_mid = e_flow + energy(sys_.circuit, rec.intermediate.y, rec.intermediate.t)
        e_new = e_flow + energy(sys_.circuit, rec.state.y, rec.state.t)
        _, _, rel = step1_energy_residual(sys_, rec.previous, rec.intermediate, 0.25)
        assert [e_mid.hex(), e_new.hex(), rel.hex()] == [
            energy_report(sys_, fresh(rec.intermediate), dt_fd).total.hex(),
            energy_report(sys_, fresh(rec.state), dt_fd).total.hex(),
            step1_energy_residual(sys_, rec.previous, fresh(rec.intermediate), 0.25)[2].hex()]
    assert [norms for _, norms in carried.kept] == [norms for _, norms in alone.kept]
    # a period of kept states holds no mass products, only their norms
    assert all(state.mass_products is None for state, _ in carried.kept)
    assert sorted(carried.gaps) == [2, 3]
    assert {p: g.hex() for p, g in carried.gaps.items()} == \
        {p: g.hex() for p, g in alone.gaps.items()}


def test_a_step_with_series_makes_five_sparse_products(monkeypatch):
    # nonlinear benchmark 1 with series: M v of the new state (run), the
    # tracker's M d, Mp d and Mp prev, and the series' K v; each period's
    # run is handed M v of its start state, the last record's.  The tracker
    # forms its products a chunk of states at a time, so each column of a
    # multi-vector product counts as one product
    calls = []
    real_one, real_several = sparsetools.csr_matvec, sparsetools.csr_matvecs

    def one(*args):
        calls.append(1)
        return real_one(*args)

    def several(*args):
        calls.append(args[2])       # n_vecs
        return real_several(*args)

    def mark(record):
        per_step.append(sum(calls))
        calls.clear()

    case = build_case(1, nonlinear=True, nx=8, ny=2)
    longest = case.system.domains[0].space.n_velocity
    monkeypatch.setattr(sparsetools, "csr_matvec", one)
    monkeypatch.setattr(sparsetools, "csr_matvecs", several)
    for chunk in (1, 3, 8):
        monkeypatch.setattr(analysis, "CHUNK_BYTES", 8 * longest * chunk)
        per_step = []
        res = run_to_periodicity(case, 0.25, max_periods=2, eps_per=1e-300,
                                 extra_observers=(mark,))
        n_tau = res.n_tau
        assert (res.periods, len(per_step)) == (2, 2 * n_tau)
        # the tracker compares states from the first period's last one on;
        # the first count also holds the run's start
        assert sum(per_step[1:n_tau]) == 2 * (n_tau - 1) + 3
        assert sum(per_step[n_tau:]) == 5 * n_tau
        if chunk == 1:
            assert per_step[1:] == [2] * (n_tau - 2) + [5] * (n_tau + 1)
