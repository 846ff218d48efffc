"""One mass product per state: `splitting.run` forms M v of its start state
and of each new state once and hands it on; stage 1, the period tracker, the
series and the stability audit read it, and each gives the bits it gives
with M v formed anew."""
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
    records, start = [], case.initial_state()
    run(case.system, start, StepConfig(dt, case.s_sub), n_steps,
        case.system.mass_products(start.velocities), observers=(records.append,))
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
def test_stage1_reads_only_the_free_rows_of_a_handed_product(monkeypatch, example,
                                                             nonlinear):
    # stage 1 of every step of a run, the first included, gives the same
    # bits with the M v that run hands it and with only Mff v[free] handed
    # (NaN on the walls)
    handed = []
    real = splitting.step1

    def spy(system, state, dt, explicit_pi, loads, mass_products):
        handed.append((state, loads))
        return real(system, state, dt, explicit_pi, loads, mass_products)

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
        got = solver.solve(state, loads, free_block)
        want = rec.intermediate
        assert [v.tobytes() for v in got.velocities] == \
            [v.tobytes() for v in want.velocities]
        assert [p.tobytes() for p in got.pressures] == \
            [p.tobytes() for p in want.pressures]
        assert got.interfaces == want.interfaces


@pytest.mark.parametrize("example, nonlinear", CASES)
def test_observers_give_the_same_bits_with_and_without_handed_products(example, nonlinear):
    # the record's M v against M v formed anew from each state
    case, records = _records(example, nonlinear, dt=0.25, n_steps=24)
    sys_, dt_fd = case.system, 1e-6 * case.tau

    def fresh(state):
        return sys_.mass_products(state.velocities)

    handed, alone = _PeriodTracker(sys_, 8), _PeriodTracker(sys_, 8)
    handed.push(case.initial_state(), fresh(case.initial_state()))
    alone.push(case.initial_state(), fresh(case.initial_state()))
    for rec in records:
        handed.push(rec.state, rec.mass_products)
        alone.push(rec.state, fresh(rec.state))
        assert _hex(energy_report(sys_, rec.state, rec.mass_products, dt_fd)) == \
            _hex(energy_report(sys_, rec.state, fresh(rec.state), dt_fd))
        e_mid, e_new, rel = step_energy_audit(sys_, rec, 0.25)
        assert [e_mid.hex(), e_new.hex(), rel.hex()] == [
            energy_report(sys_, rec.intermediate, fresh(rec.intermediate), dt_fd).total.hex(),
            energy_report(sys_, rec.state, fresh(rec.state), dt_fd).total.hex(),
            step1_energy_residual(sys_, rec.previous, rec.intermediate, 0.25)[2].hex()]
    assert [norms for _, norms in handed.buffer] == [norms for _, norms in alone.buffer]
    assert sorted(handed.gaps) == [2, 3]
    assert {p: g.hex() for p, g in handed.gaps.items()} == \
        {p: g.hex() for p, g in alone.gaps.items()}


def test_a_step_with_series_makes_five_sparse_products(monkeypatch):
    # nonlinear benchmark 1 with series: M v of the new state (run), the
    # tracker's M d, Mp d and Mp prev, and the series' K v; each period's
    # run is handed M v of its start state, the last record's
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
    assert per_step[n_tau:] == [5] * n_tau
