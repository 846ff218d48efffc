"""The observers of many states take their mass-matrix products a chunk of
consecutive states at a time (`analysis.chunk_length`, `quadratic_forms`):
every chunk length gives the same bits, whether one state, a few with a
partial chunk at each period's end, or a whole period.  The period tracker
keeps at most one period and one chunk of states."""
import weakref

import numpy as np
import pytest

from stokes0d import StepConfig, analysis, build_case, harness, run
from stokes0d.analysis import chunk_length, error_norms, quadratic_forms
from stokes0d.harness import periods_per_tau, run_to_periodicity
from stokes0d.splitting import CoupledState

DT = 0.05   # 40 steps per period
CHUNKS = [1, 7, 40]
CASES = [(1, True), (2, False), (3, False)]


def _set_chunk(monkeypatch, system, chunk):
    longest = max(dom.space.n_velocity for dom in system.domains)
    monkeypatch.setattr(analysis, "CHUNK_BYTES", 8 * longest * chunk)


def _run_bits(result):
    states = [[s.t.hex(), s.y.tobytes(), [v.tobytes() for v in s.velocities],
               [p.tobytes() for p in s.pressures]] for s in result.last_period]
    return ({p: g.hex() for p, g in result.gaps.items()},
            [x.hex() for x in vars(result.errors).values()], states)


@pytest.fixture(scope="module")
def cases_20x4():
    return {key: build_case(key[0], nonlinear=key[1], nx=20, ny=4) for key in CASES}


def test_chunk_length_is_bounded(cases_20x4, monkeypatch):
    system = cases_20x4[(2, False)].system
    longest = system.domains[0].space.n_velocity
    assert chunk_length(system, 1000) == analysis.CHUNK_BYTES // (8 * longest)
    assert chunk_length(system, 3) == 3
    monkeypatch.setattr(analysis, "CHUNK_BYTES", 8)
    assert chunk_length(system, 1000) == 1


@pytest.mark.parametrize("key", CASES)
def test_the_run_has_the_same_bits_at_every_chunk_length(cases_20x4, monkeypatch, key):
    case = cases_20x4[key]
    bits = []
    for chunk in CHUNKS:
        _set_chunk(monkeypatch, case.system, chunk)
        res = run_to_periodicity(case, DT, collect_series=False)
        assert res.converged and len(res.last_period) == res.n_tau + 1 == 41
        assert res.last_period[-1].t == res.final_state.t
        assert sorted(res.gaps) == list(range(2, res.periods + 1))
        bits.append(_run_bits(res))
    assert bits[1:] == bits[:1] * (len(CHUNKS) - 1)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_the_tracker_keeps_one_period_and_one_chunk(cases_20x4, monkeypatch, chunk):
    # every state the tracker keeps is a copy it makes without the mass
    # products; count the copies alive after each push
    case = cases_20x4[(2, False)]
    _set_chunk(monkeypatch, case.system, chunk)
    copies = []

    def copy(*fields):
        state = CoupledState(*fields)
        copies.append(weakref.ref(state))
        return state

    monkeypatch.setattr(harness, "CoupledState", copy)
    n_tau = periods_per_tau(case.tau, DT)
    tracker = harness._PeriodTracker(case.system, n_tau)
    assert tracker.chunk == chunk
    clocks = []

    def push(state):
        tracker.push(state)
        clocks.append(state.t)
        assert sum(ref() is not None for ref in copies) <= n_tau + chunk
        assert [s.t for s in tracker.last_period()] == clocks[-(n_tau + 1):]

    start = case.initial_state()
    push(start)
    run(case.system, start, StepConfig(DT, case.s_sub), 3 * n_tau,
        observers=(lambda record: push(record.state),))
    assert len(clocks) == 3 * n_tau + 1 and sorted(tracker.gaps) == [2, 3]


def test_error_norms_of_two_domains_have_the_same_bits_at_every_chunk_length(
        cases_20x4, monkeypatch):
    case = cases_20x4[(2, False)]
    states = run_to_periodicity(case, DT, collect_series=False).last_period
    reports = []
    for chunk in [1, 2, 7, 40, 41]:
        _set_chunk(monkeypatch, case.system, chunk)
        reports.append([x.hex() for x in vars(
            error_norms(case.system, states, case.exact, DT)).values()])
    assert reports[1:] == reports[:1] * 4


def test_quadratic_forms_match_one_product_per_vector(cases_20x4):
    ops = cases_20x4[(3, False)].system.domains[0].ops
    rng = np.random.default_rng(5)
    for M in (ops.M, ops.Mp):
        vectors = list(rng.standard_normal((9, M.shape[0])))
        want = [float(d @ (M @ d)) for d in vectors]
        for k in (1, 2, 9):
            assert quadratic_forms(M, vectors[:k]) == want[:k]
