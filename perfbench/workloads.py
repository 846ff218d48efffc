"""The benchmark workloads, their set-up and run, and the correctness gate.

Every workload is a fixed configuration from the paper, so every seed runs
the same inputs and is checked against the same committed reference
(reference.json).  Why each workload exists is recorded in BENCHMARK.json.
"""
from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
ERR_RTOL = 1e-6
IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    example: int
    build: dict            # build_case keyword arguments
    dts: tuple
    s_sub: int
    collect_series: bool = False
    stability_steps: int = 0   # > 0: stability_run per dt, else run_to_periodicity
    eps_per: float = 1e-6


WORKLOADS = {w.name: w for w in (
    Workload("periodic-ex1", 1, {"nonlinear": True, "nx": 100, "ny": 20},
             (0.01,), 5, collect_series=True),
    Workload("stability-sweep", 1, {"zero_forcing": True, "nx": 100, "ny": 20},
             (0.1, 1.0, 10.0), 5, stability_steps=200),
    Workload("periodic-ex3-coarse", 3, {"nx": 25, "ny": 5}, (0.001,), 10),
)}


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


# The probe's time on an unloaded 2.1 GHz Xeon vCPU under CPython 3.11:
# normalized times read as wall seconds on that host when nothing else runs.
PROBE_REF_S = 1.7e-3
PROBE_EVERY_S = 0.05
_PROBE_A = np.eye(3) + 0.1
_PROBE_B = np.ones(3)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def probe() -> float:
    """Seconds a fixed mix of the kinds of work the program does takes right
    now: an interpreter loop (about half of it), small dense solves,
    small-array arithmetic and object allocation.  On a busy host the loop
    alone slows about as much as the stage-1 sparse solve, and less than
    stage 2 and the harness, which the rest tracks."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    for _ in range(40):
        np.linalg.solve(_PROBE_A, _PROBE_B)
    x = np.ones(8)
    for _ in range(200):
        x = x * 1.0001 + 0.5
    objs = {i: _Pair(i, str(i)) for i in range(1000)}
    del objs
    return time.perf_counter() - t0


class SpeedClock:
    """Observer that times every global step and, between steps, the host.

    The host this benchmark runs on changes speed by up to 2x over seconds
    to minutes, and the sparse solve, stage 2 and the interpreter slow down
    together.  So every `every_s` of timed work the clock runs `probe` (outside
    the intervals it times) and reports each interval scaled by
    PROBE_REF_S / (mean of the probes just before and after it): the time
    the interval would take at the reference speed.  Raw walls are kept too.

    `mark()` probes and restarts the clock (before a run and after it),
    `restart()` only restarts it, and each call stamps the end of one
    interval: a global step when passed as an observer.
    """

    def __init__(self, every_s: float = PROBE_EVERY_S, probe=probe,
                 clock=time.perf_counter):
        self.every_s, self.probe, self.clock = every_s, probe, clock
        self.walls: list = []      # (seconds, index of the probe before it)
        self.probes: list = []
        self.probe_s = 0.0         # time spent probing, to leave out of walls
        self.last = None
        self.since_probe = 0.0

    def mark(self) -> None:
        t0 = self.clock()
        self.probes.append(self.probe())
        self.last = self.clock()
        self.probe_s += self.last - t0
        self.since_probe = 0.0

    def restart(self) -> None:
        self.last = self.clock()

    def __call__(self, record=None) -> None:
        now = self.clock()
        self.walls.append((now - self.last, len(self.probes) - 1))
        self.since_probe += now - self.last
        self.last = now
        if self.since_probe >= self.every_s:
            self.mark()

    def scale(self, i: int) -> float:
        """Reference over host speed around the interval after probe i."""
        return PROBE_REF_S / (sum(self.probes[i:i + 2]) / len(self.probes[i:i + 2]))

    def normalized_s(self) -> list:
        return [wall * self.scale(i) for wall, i in self.walls]

    def wall_s(self) -> list:
        return [wall for wall, _ in self.walls]

    def median_scale(self) -> float:
        return PROBE_REF_S / statistics.median(self.probes)


def setup(w: Workload, span=lambda name: contextlib.nullcontext()):
    """build_case plus the stage-1 factorization of every dt of the workload."""
    from stokes0d import cases
    case = cases.build_case(w.example, **w.build)
    for dt in w.dts:
        with span("splitting.step1_solver"):
            case.system.step1_solver(dt)
    return case


@contextlib.contextmanager
def _clock_every_run(clock: SpeedClock):
    """stability_run has no observer argument: add the clock to the observers
    it hands to `splitting.run`, which it looks up through the module."""
    from stokes0d import splitting
    run = splitting.run

    def clocked(*args, observers=(), **kwargs):
        clock.mark()
        return run(*args, observers=(*observers, clock), **kwargs)

    splitting.run = clocked
    try:
        yield
    finally:
        splitting.run = run


def run(w: Workload, case, clock: SpeedClock):
    """From the initial state to the workload's result."""
    from stokes0d import harness
    if w.stability_steps:
        with _clock_every_run(clock):
            return [harness.stability_run(case, dt, w.stability_steps, s_sub=w.s_sub)
                    for dt in w.dts]
    clock.mark()
    return harness.run_to_periodicity(case, w.dts[0], s_sub=w.s_sub,
                                      eps_per=w.eps_per,
                                      collect_series=w.collect_series,
                                      extra_observers=(clock,))


def summarize(w: Workload, result) -> dict:
    """The values the gate checks, as plain numbers."""
    if w.stability_steps:
        return {"reports": [
            {"dt": r.dt, "n_steps": r.n_steps, "passed": bool(r.passed()),
             "max_increase": float(r.max_increase),
             "chain_violation": float(r.chain_violation),
             "max_identity_residual": float(r.max_identity_residual)}
            for r in result]}
    out = {"converged": bool(result.converged), "periods": int(result.periods)}
    if result.errors is not None:
        out.update(err_v=float(result.errors.err_v), err_p=float(result.errors.err_p),
                   err_y=float(result.errors.err_y))
    return out


def check(w: Workload, summary: dict, reference: dict) -> list:
    """Problems with a run's summary; an empty list means the run is correct."""
    problems = []
    if w.stability_steps:
        reports = summary["reports"]
        if [r["dt"] for r in reports] != list(w.dts):
            problems.append(f"dts {[r['dt'] for r in reports]} != {list(w.dts)}")
        for r in reports:
            if r["n_steps"] != w.stability_steps:
                problems.append(f"dt={r['dt']}: {r['n_steps']} steps")
            if not r["passed"]:
                problems.append(f"dt={r['dt']}: energy chain violated (max increase "
                                f"{r['max_increase']:.3e}, chain violation "
                                f"{r['chain_violation']:.3e})")
            if not r["max_identity_residual"] <= IDENTITY_TOL:
                problems.append(f"dt={r['dt']}: stage-1 identity residual "
                                f"{r['max_identity_residual']:.3e} > {IDENTITY_TOL}")
        return problems
    if not summary["converged"]:
        problems.append("not periodic within the period limit")
    if summary["periods"] != reference["periods"]:
        problems.append(f"periods {summary['periods']} != {reference['periods']}")
    for key in ("err_v", "err_p", "err_y"):
        got, ref = summary.get(key), reference[key]
        if got is None or not abs(got - ref) <= ERR_RTOL * abs(ref):
            problems.append(f"{key} {got} differs from reference {ref} "
                            f"by more than {ERR_RTOL} relative")
    return problems
