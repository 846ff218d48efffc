"""In-memory spans around calls into the stokes0d layers, and the per-layer
metrics derived from them.

The tracer wraps public functions at the names their callers look them up
under (for example `stokes0d.splitting.step1`, which `splitting.run` calls
through its module globals), so the program itself is not edited.  A span is
the list [name, start, end, parent, count]: `parent` is the index of the
enclosing span (-1 for a root) and `count` is a work count the call carries
(1, or the number of circuit substeps for `circuits.step2_integrate`).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

SETUP_ROOT = "bench.setup"
RUN_ROOT = "bench.run"
PROBE = "bench.probe"   # the host-speed probe: not program work


def _n_sub(args, kwargs):
    return kwargs["n_sub"] if "n_sub" in kwargs else args[3]


# (module, attribute path, span name, work count of one call or None)
TARGETS = (
    ("stokes0d.cases", "build_case", "cases.build_case", None),
    ("stokes0d.cases", "exact_for", "exact.exact_for", None),
    ("stokes0d.mesh", "build_rect_mesh", "mesh.build_rect_mesh", None),
    ("stokes0d.cases", "build_space", "fem.build_space", None),
    ("stokes0d.cases", "assemble_operators", "fem.assemble_operators", None),
    ("stokes0d.cases", "TimeSeparableLoad", "fem.load_setup", None),
    ("stokes0d.sparse", "factorize", "sparse.factorize", None),
    ("stokes0d.sparse", "LUFactorization.solve", "sparse.solve", None),
    ("stokes0d.splitting", "step1", "splitting.step1", None),
    ("stokes0d.splitting", "step2", "splitting.step2", None),
    ("stokes0d.splitting", "step2_integrate", "circuits.step2_integrate", _n_sub),
    ("stokes0d.harness", "energy_report", "analysis.energy_report", None),
    ("stokes0d.harness", "step1_energy_residual", "analysis.step1_energy_residual", None),
    ("stokes0d.harness", "error_norms", "analysis.error_norms", None),
    ("stokes0d.harness", "run_to_periodicity", "harness.run", None),
    ("stokes0d.harness", "stability_run", "harness.run", None),
)


class Tracer:
    """Records nested spans of one thread in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []

    def _open(self, name: str, count: int = 1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, count])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, count(args, kwargs) if count else 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target for the duration of the block.

        A target the program no longer has is listed in `missing` and its
        metrics read 0, so the traced run still completes.
        """
        patched = []
        try:
            for module, path, name, count in targets:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                setattr(owner, attr, self.wrap(name, fn, count))
                patched.append((owner, attr, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "spans": self.spans, "missing": self.missing}, fh)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _by_root(spans, selfs):
    """Per root span: name -> {"total", "self", "calls", "count", "durations"}."""
    roots = []
    root_of = []
    for i, sp in enumerate(spans):
        r = i if sp[3] < 0 else root_of[sp[3]]
        root_of.append(r)
        if r == i:
            roots.append(i)
    stats = {r: defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0,
                                     "count": 0, "durations": []})
             for r in roots}
    for i, (name, start, end, _, count) in enumerate(spans):
        s = stats[root_of[i]][name]
        s["total"] += end - start
        s["self"] += selfs[i]
        s["calls"] += 1
        s["count"] += count
        s["durations"].append(end - start)
    return [(spans[r][0], stats[r]) for r in roots]


# metric -> (span name, field); run-phase metrics are totals over the run,
# setup-phase metrics are the median over the run's set-ups.
RUN_METRICS = {
    "sparse.solve_s": ("sparse.solve", "total"),
    "sparse.solve_calls": ("sparse.solve", "calls"),
    "splitting.step1_self_s": ("splitting.step1", "self"),
    "splitting.step2_self_s": ("splitting.step2", "self"),
    "circuits.step2_integrate_s": ("circuits.step2_integrate", "total"),
    "circuits.substeps": ("circuits.step2_integrate", "count"),
    "analysis.energy_report_s": ("analysis.energy_report", "total"),
    "analysis.energy_report_calls": ("analysis.energy_report", "calls"),
    "analysis.step1_energy_residual_s": ("analysis.step1_energy_residual", "total"),
    "analysis.error_norms_s": ("analysis.error_norms", "total"),
    "harness.self_s": ("harness.run", "self"),
    "harness.steps": ("splitting.step1", "calls"),
}
SETUP_METRICS = {
    "cases.build_case_s": ("cases.build_case", "total"),
    "exact.exact_for_s": ("exact.exact_for", "total"),
    "mesh.build_rect_mesh_s": ("mesh.build_rect_mesh", "total"),
    "fem.build_space_s": ("fem.build_space", "total"),
    "fem.assemble_operators_s": ("fem.assemble_operators", "total"),
    "fem.load_setup_s": ("fem.load_setup", "total"),
    "splitting.step1_assemble_s": ("splitting.step1_solver", "self"),
    "sparse.factorize_s": ("sparse.factorize", "total"),
    "sparse.factorize_calls": ("sparse.factorize", "calls"),
}


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced workload run (one or more set-ups
    rooted at SETUP_ROOT, then one run rooted at RUN_ROOT)."""
    roots = _by_root(spans, self_times(spans))
    setups = [s for name, s in roots if name == SETUP_ROOT]
    runs = [s for name, s in roots if name == RUN_ROOT]
    if len(runs) != 1 or not setups:
        raise ValueError(f"expected set-ups and one run, got roots "
                         f"{[name for name, _ in roots]}")
    run = runs[0]
    out = {m: run[name][field] for m, (name, field) in RUN_METRICS.items()}
    durations = run["sparse.solve"]["durations"]
    out["sparse.solve_ms_p50"] = 1e3 * statistics.median(durations) if durations else 0.0
    for m, (name, field) in SETUP_METRICS.items():
        out[m] = statistics.median(s[name][field] for s in setups)
    return out
