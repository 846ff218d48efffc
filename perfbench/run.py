"""Time-to-solution benchmark of stokes0d, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  For --seconds it starts workload runs, each
in a fresh process (worker.py), and starts no run that would end after the
deadline if it took as long as the longest so far; at least one run is made
(with --trace 1, one untraced and one traced, and they alternate).  Every
run passes the correctness gate or counts as failed, and a failed run's
times are left out of the metrics.

With --trace 0 it reports the end-to-end metrics, with --trace 1 the
per-layer metrics of the traced runs plus trace.overhead_s, the traced
minus the untraced median run time.  The end-to-end times are normalized
to a fixed host speed: the worker times a fixed probe every 0.05 s between
global steps and scales each step, and each set-up, by the probe's
reference time over its time around it (workloads.SpeedClock).  Without
that, a shared host whose speed drifts by up to 2x over minutes moves the
medians of runs of the same code by more than any useful bound.  The raw
wall times and the probe's times are in the result file and the report;
the per-layer times are raw.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  Full
results, the environment record and the spans go to perfbench/out/.

The workloads are fixed configurations from the paper, so the seed changes
no input; it is recorded with the result and names its files.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER_TIMEOUT_S = 150.0

sys.path.insert(0, HERE)
from workloads import PROBE_REF_S, WORKLOADS  # noqa: E402

UNITS = {"setup_s": "s", "run_s": "s", "step_ms_p50": "ms", "step_ms_p90": "ms",
         "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ms_p50", "ms"), ("_mb_computed", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_worker(workload: str, spans_path: str | None, timeout: float):
    """One workload run in a fresh process; (record or None, error text)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"worker printed no result: {proc.stderr[-2000:]}"


def raw_medians(records) -> dict:
    """Wall times before normalization, and the probe's time."""
    return {"run_wall_s": statistics.median(r["run_wall_s"] for r in records),
            "setup_wall_s": statistics.median(
                s for r in records for s in r["setup_wall_s"]),
            "probe_ms_p50": statistics.median(r["probe_ms_p50"] for r in records),
            "probe_ref_ms": 1e3 * PROBE_REF_S}


def end_to_end(records) -> dict:
    steps = [ms for r in records for ms in r["step_ms"]]
    return {
        "setup_s": statistics.median(s for r in records for s in r["setup_s"]),
        "run_s": statistics.median(r["run_s"] for r in records),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[-1],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def per_layer(untraced, traced) -> dict:
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                               - statistics.median(r["run_s"] for r in untraced))
    return out


def bench_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    start = time.monotonic()
    load_start = os.getloadavg()
    runs, errors = [], []
    kinds = [False, True] if trace else [False]
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        traced = kinds[len(runs) % len(kinds)]
        if len(runs) >= len(kinds) and elapsed + longest > seconds:
            break
        spans_path = os.path.join(OUT, f"spans-{tag}-{len(runs)}.json") if traced else None
        t0 = time.monotonic()
        rec, err = run_worker(name, spans_path, max(10.0, WORKER_TIMEOUT_S - elapsed))
        longest = max(longest, time.monotonic() - t0)
        if rec is None:
            rec = {"problems": [err]}
        rec["traced"] = traced
        runs.append(rec)
        if rec["problems"]:
            errors.append(f"run {len(runs) - 1}: " + "; ".join(rec["problems"]))
        if rec["problems"] and "run_s" not in rec:
            break   # the program does not run: do not keep retrying

    good = [r for r in runs if not r["problems"]]
    untraced = [r for r in good if not r["traced"]]
    traced_ok = [r for r in good if r["traced"]]
    measured = bool(untraced) and (not trace or bool(traced_ok))
    correct = measured and not errors
    metrics = {}
    if measured:
        if trace:
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in per_layer(untraced, traced_ok).items()}
        else:
            metrics = {k: {"value": v, "unit": UNITS[k]}
                       for k, v in end_to_end(untraced).items()}
    env = next((r["env"] for r in runs if "env" in r), {})
    env.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               loadavg_start=load_start, loadavg_end=os.getloadavg())
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "correct": correct, "attempted": len(runs), "failed": len(errors),
              "errors": errors, "metrics": metrics,
              "raw": raw_medians(untraced) if untraced else {}, "env": env,
              "runs": [{k: v for k, v in r.items() if k not in ("step_ms", "env")}
                       for r in runs]}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    print(f"{result['workload']}: {result['attempted']} runs, "
          f"{result['failed']} failed, seed {result['seed']}, "
          f"trace {int(result['trace'])}")
    for err in result["errors"]:
        print(f"  FAILED {err}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    if result["raw"]:
        print(f"  untraced, not normalized: {json.dumps(result['raw'])}")
    for r in result["runs"]:
        if "summary" in r:
            print(f"  check {json.dumps(r['summary'])}")
            break
    missing = sorted({m for r in result["runs"] for m in r.get("trace_missing", ())})
    if missing:
        print(f"  not traced, read as 0: {'; '.join(missing)}")
    print(f"  env {json.dumps(result['env'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "stokes0d", "__init__.py")):
        print(f"no stokes0d package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [bench_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for r in results:
        report(r)
    if len(results) == 1:
        final = {k: results[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{r['workload']}/{k}": v for r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
