"""Experiment drivers: periodic runs, stability sweeps, convergence studies.

A simulation is driven period by period (dt = tau / N_tau) against a
streaming periodicity criterion: the squared relative distance between the
latest two period vectors must fall under eps_per.  Once periodic, the last
recorded period feeds the normalized error norms.  The stability driver
checks the per-step energy chain of the splitting scheme and audits the
stage-1 energy identity; the convergence driver sweeps dt and fits the
log-log slope.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import splitting
# step1_energy_residual is not called here; perfbench/spans.py traces it under
# this module's name, next to energy_report
from .analysis import (EnergyReport, ErrorReport, convergence_rate,  # noqa: F401
                       energy_report, error_norms, step1_energy_residual,
                       step_energy_audit)
from .cases import Case
from .splitting import StepConfig, check_positive


def periods_per_tau(tau: float, dt: float) -> int:
    check_positive("dt", dt)
    n = int(round(tau / dt))
    if n < 1 or abs(n * dt - tau) > 1e-9 * tau:
        raise ValueError(f"dt={dt} does not divide the period tau={tau}")
    return n


class _PeriodTracker:
    """Streams states and accumulates the per-period gap terms.

    Keeps the latest N_tau + 1 states, each with its velocities' squared
    norms v.(M v); when state i arrives, its counterpart one period earlier
    is the head of the buffer, and the pair contributes to the period in
    progress.  Period boundaries belong to both neighbours: a boundary
    state closes period p and opens p + 1, so one running sum `acc` is all
    that is ever open.
    """

    def __init__(self, system, n_per: int):
        self.system = system
        self.n_per = n_per
        self.buffer = deque(maxlen=n_per + 1)
        self.count = 0
        self.acc = None
        self.gaps = {}

    def _groups(self, state, prev, prev_velocity_sq_norms):
        sys_ = self.system
        for l, dom in enumerate(sys_.domains):
            d = state.velocities[l] - prev.velocities[l]
            yield float(d @ (dom.ops.M @ d)), prev_velocity_sq_norms[l]
            d = state.pressures[l] - prev.pressures[l]
            yield float(d @ (dom.ops.Mp @ d)), float(
                prev.pressures[l] @ (dom.ops.Mp @ prev.pressures[l]))
        d = state.y - prev.y
        yield float(d @ d), float(prev.y @ prev.y)

    def push(self, state, mass_products) -> None:
        """Take the next state; `mass_products` are its velocities' M v."""
        self.buffer.append((state, [float(v @ mv) for v, mv
                                    in zip(state.velocities, mass_products)]))
        i = self.count
        self.count += 1
        if i < self.n_per:
            return
        pairs = np.array(list(self._groups(state, *self.buffer[0])))
        p, offset = divmod(i, self.n_per)
        if offset:
            self.acc += pairs
            return
        if p >= 2:
            acc = self.acc + pairs
            if np.any(acc[:, 1] <= 0.0):
                raise ZeroDivisionError("previous period has zero norm; "
                                        "degenerate periodicity reference")
            self.gaps[p] = float(np.max(acc[:, 0] / acc[:, 1]))
        self.acc = pairs


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
    last_period: Optional[list]     # the states of the last recorded period
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

    def record_series(state, mass_products):
        series.append(SeriesRow(state.t, state.interfaces, state.y,
                                energy_report(system, state, mass_products, dt_fd)))

    mass_products = system.mass_products(state.velocities)
    if collect_series:
        record_series(state, mass_products)
    if max_periods == 0:
        return SimulateResult(case, dt, s_sub, n_tau, False, 0, {}, series, None, state)

    tracker = _PeriodTracker(system, n_tau)
    tracker.push(state, mass_products)

    def on_step(record):
        nonlocal mass_products      # the last record's M v starts the next run
        mass_products = record.mass_products
        tracker.push(record.state, record.mass_products)
        if collect_series:
            record_series(record.state, record.mass_products)
        for obs in extra_observers:
            obs(record)

    converged = False
    periods = 0
    for p in range(1, max_periods + 1):
        state = splitting.run(system, state, config, n_tau, mass_products,
                              observers=(on_step,))
        periods = p
        gap = tracker.gaps.get(p)
        if gap is not None and gap < eps_per:
            converged = True
            break

    last_period = [s for s, _ in tracker.buffer] if periods >= 1 else None
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

    mass_products = system.mass_products(state.velocities)
    e_prev = energy_report(system, state, mass_products, 1e-6 * case.tau).total
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

    splitting.run(system, state, config, n_steps, mass_products,
                  observers=(on_step,), explicit_pi=explicit_pi)
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
