"""One workload run in a fresh process: set-up, run, correctness gate.

    python3 perfbench/worker.py --workload NAME [--spans FILE]

Run from the repository root with `src` on PYTHONPATH (run.py does this).
Prints one JSON object: set-up times, run time, per-step times, peak RSS,
the gate's verdict and, with --spans, the per-layer metrics of the traced
run (the spans themselves go to FILE).
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans as spans_mod  # noqa: E402
import workloads  # noqa: E402

SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 1, 10, 1.0
STAGE1_METRICS = ("sparse.n", "sparse.nnz", "sparse.lu_fill", "sparse.lu_mb_computed")


def blas_record() -> list:
    """OpenBLAS builds loaded in this process and their thread counts."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return found
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        rec = {"library": os.path.basename(path)}
        for suffix in ("", "64_"):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in rec:
                    threads.restype = ctypes.c_int
                    rec["threads"] = threads()
                if config is not None and "config" not in rec:
                    config.restype = ctypes.c_char_p
                    rec["config"] = config().decode(errors="replace")
        if "threads" in rec:
            found.append(rec)
    return found


def stage1_stats(w, case) -> dict:
    """Size and LU fill of the stage-1 systems, read from the objects that
    `step1_solver(dt)` returns; fill is summed over the workload's dts."""
    n = nnz = fill = 0
    for dt in w.dts:
        solver = case.system.step1_solver(dt)
        matrix = solver.matrix
        matrix = matrix.to_scipy() if hasattr(matrix, "to_scipy") else matrix
        lu = getattr(solver.factorization, "_lu", solver.factorization)
        n, nnz = solver.n, max(nnz, int(matrix.nnz))
        fill += int(lu.L.nnz + lu.U.nnz)
    return dict(zip(STAGE1_METRICS, (n, nnz, fill, fill * (8 + 4) / 1e6)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--spans", help="trace the run and write its spans here")
    args = ap.parse_args(argv)

    import numpy
    import scipy
    import stokes0d
    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(stokes0d.__file__), src]) != src:
        print(f"stokes0d imported from {stokes0d.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference().get(w.name, {})
    tracer = spans_mod.Tracer() if args.spans else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())

    def probe():
        with span(spans_mod.PROBE):
            return workloads.probe()

    with tracer.installed() if tracer else contextlib.nullcontext():
        setup_clock = workloads.SpeedClock(every_s=0.0, probe=probe)
        setup_clock.mark()
        case = None
        while (len(setup_clock.walls) < SETUP_MIN
               or (len(setup_clock.walls) < SETUP_MAX
                   and sum(setup_clock.wall_s()) < SETUP_BUDGET_S)):
            case = None
            gc.collect()
            setup_clock.restart()
            with span(spans_mod.SETUP_ROOT):
                case = workloads.setup(w, span)
            setup_clock()
        clock = workloads.SpeedClock(probe=probe)
        t0 = time.perf_counter()
        with span(spans_mod.RUN_ROOT):
            result = workloads.run(w, case, clock)
        run_wall_s = time.perf_counter() - t0 - clock.probe_s
        clock.mark()
    steps_s = clock.normalized_s()
    # what the step observer does not cover: the run's start, its error
    # norms and, on stability-sweep, the work between the three runs
    rest_s = (run_wall_s - sum(clock.wall_s())) * clock.median_scale()

    summary = workloads.summarize(w, result)
    out = {
        "workload": w.name,
        "setup_s": setup_clock.normalized_s(),
        "setup_wall_s": setup_clock.wall_s(),
        "run_s": sum(steps_s) + rest_s,
        "run_wall_s": run_wall_s,
        "probe_ms_p50": 1e3 * workloads.PROBE_REF_S / clock.median_scale(),
        "step_ms": [1e3 * x for x in steps_s],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "summary": summary,
        "problems": workloads.check(w, summary, reference),
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "blas": blas_record(),
                "blas_env": {k: os.environ.get(k) for k in (
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
    }
    if tracer:
        layers = spans_mod.layer_metrics(tracer.spans)
        try:
            layers.update(stage1_stats(w, case))
        except AttributeError as err:   # the stage-1 solver no longer has these
            tracer.missing.append(f"stage-1 size and fill: {err}")
            layers.update(dict.fromkeys(STAGE1_METRICS, 0))
        layers["harness.periods"] = summary.get("periods", 0)
        out["layers"] = layers
        out["trace_missing"] = tracer.missing
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
