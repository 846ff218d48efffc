"""One mass product per state: `splitting.run` forms M v of each new state
once and hands it on; stage 1, the period tracker, the series and the
stability audit read it, and each gives the bits it gives without it."""
import numpy as np
import pytest
import scipy.sparse._sparsetools as sparsetools

from stokes0d import StepConfig, build_case, run, splitting
from stokes0d.analysis import energy_report, step1_energy_residual, step_energy_audit
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
def test_records_carry_the_mass_products_of_their_new_state(example, nonlinear):
    case, records = _records(example, nonlinear)
    for rec in records:
        assert rec.intermediate.velocities is rec.state.velocities
        assert len(rec.mass_products) == len(case.system.domains)
        for dom, v, mv in zip(case.system.domains, rec.state.velocities,
                              rec.mass_products):
            assert mv.tobytes() == (dom.ops.M @ v).tobytes()


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_stage1_reads_only_the_free_rows_of_a_handed_product(example, nonlinear):
    # stage 1 from the run's own states and from the initial state gives the
    # same bits with the handed M v, with only Mff v[free] handed (NaN on the
    # walls) and with nothing handed
    case, records = _records(example, nonlinear)
    sys_, dt = case.system, 0.05
    solver = sys_.step1_solver(dt)
    starts = [(case.initial_state(), None)] + [(r.state, r.mass_products) for r in records]
    for k, (state, handed) in enumerate(starts[:-1]):
        loads = splitting._loads_of_step(splitting.stage1_loads(
            sys_, splitting.step_times(state.t, dt, 1)[1:]), 0)
        free_block = []
        for dom, v in zip(sys_.domains, state.velocities):
            free = dom.space.free
            w = np.full(dom.space.n_velocity, np.nan)
            w[free] = dom.ops.M.tocsr()[free][:, free] @ v[free]
            free_block.append(w)
        alone = solver.solve(state, loads)
        for products in (handed, free_block):
            got = solver.solve(state, loads, products)
            assert [v.tobytes() for v in got.velocities] == \
                [v.tobytes() for v in alone.velocities]
            assert [p.tobytes() for p in got.pressures] == \
                [p.tobytes() for p in alone.pressures]
            assert got.interfaces == alone.interfaces
        nxt = records[k].intermediate
        assert [v.tobytes() for v in nxt.velocities] == \
            [v.tobytes() for v in alone.velocities]


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_observers_give_the_same_bits_with_and_without_handed_products(example, nonlinear):
    case, records = _records(example, nonlinear, dt=0.25, n_steps=24)
    sys_, dt_fd = case.system, 1e-6 * case.tau
    handed, alone = _PeriodTracker(sys_, 8), _PeriodTracker(sys_, 8)
    handed.push(case.initial_state())
    alone.push(case.initial_state())
    for rec in records:
        handed.push(rec.state, rec.mass_products)
        alone.push(rec.state)
        assert _hex(energy_report(sys_, rec.state, dt_fd, rec.mass_products)) == \
            _hex(energy_report(sys_, rec.state, dt_fd))
        e_mid, e_new, rel = step_energy_audit(sys_, rec, 0.25)
        assert [e_mid.hex(), e_new.hex(), rel.hex()] == [
            energy_report(sys_, rec.intermediate).total.hex(),
            energy_report(sys_, rec.state).total.hex(),
            step1_energy_residual(sys_, rec.previous, rec.intermediate, 0.25)[2].hex()]
    assert list(handed.velocity_sq_norms) == list(alone.velocity_sq_norms)
    assert sorted(handed.gaps) == [2, 3]
    assert {p: g.hex() for p, g in handed.gaps.items()} == \
        {p: g.hex() for p, g in alone.gaps.items()}


def test_a_step_with_series_makes_five_sparse_products(monkeypatch):
    # nonlinear benchmark 1 with series: M v of the new state (run), the
    # tracker's M d, Mp d and Mp prev, and the series' K v; the first step of
    # each run forms its stage-1 M v itself
    calls = []
    real = sparsetools.csr_matvec

    def counting(*args):
        calls.append(1)
        return real(*args)

    per_step = []

    def mark(record):
        per_step.append(len(calls))
        calls.clear()

    case = build_case(1, nonlinear=True, nx=8, ny=2)
    monkeypatch.setattr(sparsetools, "csr_matvec", counting)
    res = run_to_periodicity(case, 0.25, max_periods=2, eps_per=1e-300,
                             extra_observers=(mark,))
    n_tau = res.n_tau
    assert (res.periods, len(per_step)) == (2, 2 * n_tau)
    # the tracker compares states from the second period on
    assert per_step[n_tau:] == [6] + [5] * (n_tau - 1)
