"""Experiment drivers: periodic runs, stability sweeps, convergence studies.

A simulation is driven period by period (dt = tau / N_tau) against a
streaming periodicity criterion: the squared relative distance between the
latest two period vectors must fall under eps_per.  The tracker forms the
gap terms a chunk of consecutive states at a time, one sparse product per
mass matrix and chunk, and closes every chunk at a period boundary.  Once
periodic, the last recorded period feeds the normalized error norms.  The
stability driver checks the per-step energy chain of the splitting scheme
and audits the stage-1 energy identity; the convergence driver sweeps dt
and fits the log-log slope.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import splitting
# step1_energy_residual is only re-exported: nothing calls it through this
# module, so the span that perfbench/spans.py wraps around it here reads 0;
# the stability audit calls it inside step_energy_audit
from .analysis import (EnergyReport, ErrorReport, chunk_length,  # noqa: F401
                       convergence_rate, energy_report, error_norms,
                       quadratic_forms, step1_energy_residual, step_energy_audit)
from .cases import Case
from .splitting import CoupledState, StepConfig, check_positive


def periods_per_tau(tau: float, dt: float) -> int:
    check_positive("dt", dt)
    n = int(round(tau / dt))
    if n < 1 or abs(n * dt - tau) > 1e-9 * tau:
        raise ValueError(f"dt={dt} does not divide the period tau={tau}")
    return n


class _PeriodTracker:
    """Streams states and accumulates the per-period gap terms.

    When state i arrives, its counterpart one period earlier is state
    i - N_tau, and the pair contributes to the period in progress.  Period
    boundaries belong to both neighbours: a boundary state closes period p
    and opens p + 1, so one running sum `acc` is all that is ever open.
    The pairs' terms are formed a chunk of consecutive states at a time
    (`analysis.quadratic_forms`), and a chunk always closes at a period
    boundary, so each period's gap is there when its last state is pushed.
    The buffer keeps the latest N_tau + 1 states and the open chunk, each
    with its velocities' squared norms v.(M v).
    """

    def __init__(self, system, n_per: int):
        self.system = system
        self.n_per = n_per
        self.chunk = chunk_length(system, n_per)
        self.buffer = deque(maxlen=n_per + 1 + self.chunk)
        self.count = 0
        self.formed = n_per     # the first state whose terms are not formed
        self.acc = None
        self.gaps = {}

    def push(self, state) -> None:
        """Take the next state.  The buffer keeps it with v.(M v), all it
        reads of the mass products, and without the products themselves: a
        period of them would double the memory the velocities take."""
        norms = [float(v @ mv) for v, mv in zip(state.velocities, state.mass_products)]
        kept = CoupledState(state.velocities, state.pressures, state.y,
                            state.interfaces, state.t, None)
        self.buffer.append((kept, norms))
        i = self.count
        self.count += 1
        if i >= self.n_per and (i % self.n_per == 0
                                or self.count - self.formed == self.chunk):
            self._close_chunk()

    def _terms(self, pairs) -> np.ndarray:
        """The (numerator, reference) gap terms of each (state, counterpart,
        counterpart's norms) pair, shape (pairs, groups, 2): per domain the
        velocities, then the pressures, and the circuit state last."""
        sys_ = self.system
        terms = np.empty((len(pairs), 2 * len(sys_.domains) + 1, 2))
        for l, dom in enumerate(sys_.domains):
            dv = np.empty((len(pairs), dom.space.n_velocity))
            dp = np.empty((len(pairs), dom.space.n_pressure))
            for k, (s, prev, _) in enumerate(pairs):
                np.subtract(s.velocities[l], prev.velocities[l], out=dv[k])
                np.subtract(s.pressures[l], prev.pressures[l], out=dp[k])
            terms[:, 2 * l, 0] = quadratic_forms(dom.ops.M, dv)
            terms[:, 2 * l, 1] = [norms[l] for _, _, norms in pairs]
            terms[:, 2 * l + 1, 0] = quadratic_forms(dom.ops.Mp, dp)
            terms[:, 2 * l + 1, 1] = quadratic_forms(
                dom.ops.Mp, [prev.pressures[l] for _, prev, _ in pairs])
        for k, (s, prev, _) in enumerate(pairs):
            d = s.y - prev.y
            terms[k, -1] = float(d @ d), float(prev.y @ prev.y)
        return terms

    def _close_chunk(self) -> None:
        """Form the terms of the states pushed since the last chunk and add
        them to the running sum one state at a time, in push order."""
        n_new = self.count - self.formed
        self.formed = self.count
        end = len(self.buffer)
        pairs = [(self.buffer[k][0], *self.buffer[k - self.n_per])
                 for k in range(end - n_new, end)]
        terms = self._terms(pairs)
        if self.acc is None:    # state N_tau opens period 2
            self.acc = terms[-1]
            return
        running = np.add.accumulate(np.concatenate((self.acc[None], terms)))
        p, offset = divmod(self.count - 1, self.n_per)
        if offset:
            self.acc = running[-1]
            return
        acc = running[-1]
        if np.any(acc[:, 1] <= 0.0):
            raise ZeroDivisionError("previous period has zero norm; "
                                    "degenerate periodicity reference")
        self.gaps[p] = float(np.max(acc[:, 0] / acc[:, 1]))
        self.acc = terms[-1]

    def last_period(self) -> list:
        """The latest N_tau + 1 states."""
        return [s for s, _ in self.buffer][-(self.n_per + 1):]


@dataclass
class SeriesRow:
    t: float
    interfaces: dict          # interface_id -> InterfaceValues
    y: np.ndarray
    energy: EnergyReport


@dataclass
class SimulateResult:
    case: Case
    dt: float
    s_sub: int
    n_tau: int
    converged: bool
    periods: int
    gaps: dict
    series: list
    last_period: Optional[list]     # the states of the last recorded period,
                                    # without their mass products
    final_state: object
    errors: Optional[ErrorReport] = None

    @property
    def final_gap(self) -> Optional[float]:
        return self.gaps[max(self.gaps)] if self.gaps else None


def run_to_periodicity(case: Case, dt: float, s_sub: int | None = None,
                       eps_per: float = 1e-6, max_periods: int = 10,
                       collect_series: bool = True,
                       extra_observers=()) -> SimulateResult:
    """Advance whole periods until the periodicity gap drops under eps_per.

    With max_periods = 0 the initial state is reported and nothing runs.
    """
    if max_periods < 0:
        raise ValueError(f"max_periods must be >= 0, got max_periods={max_periods}")
    check_positive("eps_per", eps_per)
    system = case.system
    n_tau = periods_per_tau(case.tau, dt)
    s_sub = s_sub if s_sub is not None else case.s_sub
    config = StepConfig(dt, s_sub)
    state = case.initial_state()
    dt_fd = 1e-6 * case.tau

    series: list = []

    def record_series(state):
        series.append(SeriesRow(state.t, state.interfaces, state.y,
                                energy_report(system, state, dt_fd)))

    if collect_series:
        record_series(state)
    if max_periods == 0:
        return SimulateResult(case, dt, s_sub, n_tau, False, 0, {}, series, None, state)

    tracker = _PeriodTracker(system, n_tau)
    tracker.push(state)

    def on_step(record):
        tracker.push(record.state)
        if collect_series:
            record_series(record.state)
        for obs in extra_observers:
            obs(record)

    converged = False
    periods = 0
    for p in range(1, max_periods + 1):
        state = splitting.run(system, state, config, n_tau, observers=(on_step,))
        periods = p
        gap = tracker.gaps.get(p)
        if gap is not None and gap < eps_per:
            converged = True
            break

    last_period = tracker.last_period() if periods >= 1 else None
    errors = None
    if converged:
        errors = error_norms(system, last_period, case.exact, dt)
    return SimulateResult(case, dt, s_sub, n_tau, converged, periods,
                          dict(tracker.gaps), series, last_period, state, errors)


@dataclass
class StabilityReport:
    dt: float
    n_steps: int
    e0: float
    max_increase: float         # max over n of E^{n+1} - E^n
    chain_violation: float      # max violation of E^{n+1} <= E^{n+1/2} <= E^n
    max_identity_residual: float

    def passed(self) -> bool:
        tol = 1e-12 * self.e0       # round-off slack relative to the initial energy
        return self.max_increase <= tol and self.chain_violation <= tol


def stability_run(case: Case, dt: float, n_steps: int, s_sub: int | None = None,
                  explicit_pi: bool = False) -> StabilityReport:
    """Track the energy chain over an unforced run from exact initial data."""
    if n_steps < 1:
        raise ValueError(f"a stability run needs steps >= 1, got steps={n_steps}")
    system = case.system
    s_sub = s_sub if s_sub is not None else case.s_sub
    config = StepConfig(dt, s_sub)
    state = case.initial_state()

    e_prev = energy_report(system, state, 1e-6 * case.tau).total
    e0 = e_prev
    max_inc = -np.inf
    chain_viol = -np.inf
    max_resid = 0.0

    def on_step(record):
        nonlocal e_prev, max_inc, chain_viol, max_resid
        e_mid, e_new, rel = step_energy_audit(system, record, config.dt)
        # np.max, unlike max, propagates NaN, so a run that blows up fails
        max_inc = float(np.max([max_inc, e_new - e_prev]))
        chain_viol = float(np.max([chain_viol, e_mid - e_prev, e_new - e_mid]))
        max_resid = float(np.max([max_resid, rel]))
        e_prev = e_new

    splitting.run(system, state, config, n_steps, observers=(on_step,),
                  explicit_pi=explicit_pi)
    return StabilityReport(dt, n_steps, e0, max_inc, chain_viol, max_resid)


@dataclass
class ConvergenceResult:
    rows: list                  # (dt, ErrorReport, periods)
    slopes: dict                # "v" / "p" / "y" -> fitted slope, when >= 2 rows

    def errors(self, which: str):
        key = {"v": "err_v", "p": "err_p", "y": "err_y"}[which]
        return [(dt, getattr(err, key)) for dt, err, _ in self.rows]


def convergence_study(case_builder, dt_list, eps_per: float = 1e-6, max_periods: int = 10,
                      s_sub: int | None = None, on_result=None) -> ConvergenceResult:
    """Run simulate-to-periodicity for each dt and fit log-log slopes.

    `case_builder()` must return a fresh Case (runs are independent); the
    first is built up front to check every dt against its period.
    `on_result(dt, SimulateResult)` is called after each run when given.
    """
    dts = [float(dt) for dt in dt_list]
    if len(dts) != len(set(dts)):
        raise ValueError(f"duplicate dt values: {dts}")
    for dt in dts:
        check_positive("dt", dt)
    if max_periods < 1:
        raise ValueError(f"max_periods must be >= 1, got max_periods={max_periods}")
    check_positive("eps_per", eps_per)
    case = case_builder()
    for dt in dts:
        periods_per_tau(case.tau, dt)
    rows = []
    for k, dt in enumerate(sorted(dts, reverse=True)):
        if k:
            case = case_builder()
        res = run_to_periodicity(case, dt, s_sub=s_sub, eps_per=eps_per,
                                 max_periods=max_periods, collect_series=False)
        if not res.converged:
            raise RuntimeError(f"no periodicity within {max_periods} periods "
                               f"at dt={dt} (last gap {res.final_gap})")
        rows.append((dt, res.errors, res.periods))
        if on_result is not None:
            on_result(dt, res)
    result = ConvergenceResult(rows, {})
    if len(rows) >= 2:
        result.slopes.update({which: convergence_rate(result.errors(which))
                              for which in ("v", "p", "y")})
    return result


def peak_errors(result: SimulateResult, interface_id) -> dict:
    """Relative peak errors of P and Q over the last recorded period.

    peak error = max_n |x^n - x_ex(t^n)| / max_n |x_ex(t^n)|, maximum over
    the N_tau + 1 states of `result.last_period`.
    """
    if not result.converged:
        raise ValueError("needs a converged run")
    ie = result.case.exact.interfaces[interface_id]
    p_num = q_num = p_den = q_den = 0.0
    for state in result.last_period:
        vals = state.interfaces[interface_id]
        pex, qex = float(ie.P(state.t)), float(ie.Q(state.t))
        p_num = max(p_num, abs(vals.P - pex))
        q_num = max(q_num, abs(vals.Q - qex))
        p_den = max(p_den, abs(pex))
        q_den = max(q_den, abs(qex))
    return {"P": p_num / p_den, "Q": q_num / q_den}
