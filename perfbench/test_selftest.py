"""Self-test of the benchmark's span arithmetic, tracer and correctness gate.

    python3 -m pytest -q perfbench
"""
import json
import os
import sys
import types
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def sp(name, start, end, parent, count=1):
    return [name, float(start), float(end), parent, count]


def test_self_time_subtracts_children_and_their_overlap_once():
    tree = [
        sp("root", 0, 10, -1),      # 0
        sp("a", 1, 4, 0),           # 1
        sp("a.x", 2, 3, 1),         # 2
        sp("b", 5, 9, 0),           # 3
        sp("b.x", 5, 7, 3),         # 4
        sp("b.y", 6, 8, 3),         # 5: overlaps b.x on [6, 7]
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_layer_metrics_totals_run_and_takes_median_over_setups():
    tree = []

    def add(name, start, end, parent, count=1):
        tree.append(sp(name, start, end, parent, count))
        return len(tree) - 1

    for s0, fact in ((0, 1.0), (10, 3.0), (20, 2.0)):
        root = add(spans.SETUP_ROOT, s0, s0 + 5, -1)
        solver = add("splitting.step1_solver", s0 + 1, s0 + 1 + fact + 0.5, root)
        add("sparse.factorize", s0 + 1.5, s0 + 1.5 + fact, solver)
    run_root = add(spans.RUN_ROOT, 100, 120, -1)
    harness = add("harness.run", 100, 119, run_root)
    for t0, solve in ((101, 1.0), (104, 2.0), (108, 4.0)):
        step1 = add("splitting.step1", t0, t0 + solve + 0.5, harness)
        add("sparse.solve", t0 + 0.25, t0 + 0.25 + solve, step1)
        step2 = add("splitting.step2", t0 + solve + 0.5, t0 + solve + 1.0, harness)
        add("circuits.step2_integrate", t0 + solve + 0.5, t0 + solve + 0.75, step2, 5)

    m = spans.layer_metrics(tree)
    assert m["sparse.solve_s"] == pytest.approx(7.0)
    assert m["sparse.solve_calls"] == 3
    assert m["sparse.solve_ms_p50"] == pytest.approx(2000.0)
    assert m["splitting.step1_self_s"] == pytest.approx(1.5)
    assert m["splitting.step2_self_s"] == pytest.approx(0.75)
    assert m["circuits.step2_integrate_s"] == pytest.approx(0.75)
    assert m["circuits.substeps"] == 15
    assert m["harness.steps"] == 3
    assert m["harness.self_s"] == pytest.approx(19.0 - (7.0 + 3 * 0.5) - 3 * 0.5)
    assert m["analysis.energy_report_calls"] == 0
    assert m["sparse.factorize_s"] == pytest.approx(2.0)
    assert m["sparse.factorize_calls"] == 1
    assert m["splitting.step1_assemble_s"] == pytest.approx(0.5)


def test_tracer_nests_spans_counts_work_and_restores_targets():
    mod = types.ModuleType("perfbench_fake_layer")

    class Solver:
        def solve(self, x):
            return x + 1

    def inner(a, b, c, n_sub):
        return Solver().solve(n_sub)

    def outer():
        return mod.inner(0, 0, 0, 4)

    mod.Solver, mod.inner, mod.outer = Solver, inner, outer
    solve = Solver.solve
    sys.modules[mod.__name__] = mod
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    targets = ((mod.__name__, "outer", "l.outer", None),
               (mod.__name__, "inner", "l.inner", spans._n_sub),
               (mod.__name__, "Solver.solve", "l.solve", None),
               (mod.__name__, "gone", "l.gone", None))
    try:
        with tracer.installed(targets):
            assert mod.outer() == 5
        assert (mod.outer, mod.inner, Solver.solve) == (outer, inner, solve)
    finally:
        del sys.modules[mod.__name__]
    assert tracer.missing == [f"{mod.__name__}.gone"]
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [
        ("l.outer", -1, 1), ("l.inner", 0, 4), ("l.solve", 1, 1)]
    assert spans.self_times(tracer.spans) == [2.0, 2.0, 1.0]


PERIODIC = workloads.WORKLOADS["periodic-ex3-coarse"]
SWEEP = workloads.WORKLOADS["stability-sweep"]


def periodic_summary(ref, **changes):
    out = {"converged": True, "periods": ref["periods"],
           "err_v": ref["err_v"], "err_p": ref["err_p"], "err_y": ref["err_y"]}
    out.update(changes)
    return out


def test_gate_accepts_reference_and_rejects_perturbed_or_unconverged():
    ref = workloads.load_reference()[PERIODIC.name]
    assert workloads.check(PERIODIC, periodic_summary(ref), ref) == []
    near = periodic_summary(ref, err_v=ref["err_v"] * (1 + 1e-7))
    assert workloads.check(PERIODIC, near, ref) == []
    perturbed = dict(ref, err_p=ref["err_p"] * (1 + 1e-5))
    assert any("err_p" in p for p in workloads.check(
        PERIODIC, periodic_summary(ref), perturbed))
    unconverged = {"converged": False, "periods": 10}
    problems = workloads.check(PERIODIC, unconverged, ref)
    assert any("not periodic" in p for p in problems)
    assert any("periods" in p for p in problems)
    assert any("err_v" in p for p in problems)


def test_gate_checks_each_stability_report():
    def report(dt, **changes):
        r = {"dt": dt, "n_steps": 200, "passed": True, "max_increase": 0.0,
             "chain_violation": 0.0, "max_identity_residual": 1e-14}
        r.update(changes)
        return r

    good = {"reports": [report(dt) for dt in SWEEP.dts]}
    assert workloads.check(SWEEP, good, {}) == []
    grew = {"reports": [report(0.1), report(1.0, passed=False), report(10.0)]}
    assert any("energy chain" in p for p in workloads.check(SWEEP, grew, {}))
    loose = {"reports": [report(0.1), report(1.0), report(10.0, max_identity_residual=1e-7)]}
    assert any("identity" in p for p in workloads.check(SWEEP, loose, {}))
    short = {"reports": [report(0.1), report(1.0)]}
    assert workloads.check(SWEEP, short, {})


def test_speed_clock_leaves_out_probes_and_scales_by_the_probes_around():
    ref = workloads.PROBE_REF_S
    probes = iter([2 * ref, ref, ref])
    ticks = iter([0.0, 0.5, 1.0, 1.7, 1.7, 2.0, 2.4, 2.5, 2.6])
    clock = workloads.SpeedClock(every_s=1.0, probe=lambda: next(probes),
                                 clock=lambda: next(ticks))
    clock.mark()        # probe on [0, 0.5]
    clock()             # step [0.5, 1.0]
    clock()             # step [1.0, 1.7]; 1.2 s since the probe: probe on [1.7, 2.0]
    clock()             # step [2.0, 2.4]
    assert clock.probe_s == pytest.approx(0.8)
    clock.mark()        # probe on [2.5, 2.6] closes the last step
    assert clock.wall_s() == pytest.approx([0.5, 0.7, 0.4])
    # steps 0 and 1 lie between probes 2 ref and ref, step 2 between ref and ref
    assert clock.normalized_s() == pytest.approx([0.5 / 1.5, 0.7 / 1.5, 0.4])
    assert clock.median_scale() == pytest.approx(1.0)


def test_metric_names_match_benchmark_json_and_layer_map():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        layer_map = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.UNITS)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.UNITS[m["name"]]

    lu = SimpleNamespace(L=SimpleNamespace(nnz=3), U=SimpleNamespace(nnz=4))
    solver = SimpleNamespace(n=5, matrix=SimpleNamespace(nnz=9),
                             factorization=SimpleNamespace(_lu=lu))
    case = SimpleNamespace(system=SimpleNamespace(step1_solver=lambda dt: solver))
    assert worker.stage1_stats(SWEEP, case) == {
        "sparse.n": 5, "sparse.nnz": 9, "sparse.lu_fill": 3 * 7,
        "sparse.lu_mb_computed": 3 * 7 * 12 / 1e6}
    produced = (set(spans.RUN_METRICS) | set(spans.SETUP_METRICS) | set(worker.STAGE1_METRICS)
                | {"sparse.solve_ms_p50", "harness.periods", "trace.overhead_s"})
    assert {m["name"] for m in bench["per_layer"]} == produced
    assert set(layer_map) == produced
    for m in bench["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
        for e2e in layer_map[m["name"]]["moves"]:
            assert e2e in run.UNITS
        assert set(layer_map[m["name"]]["workloads"]) <= set(workloads.WORKLOADS)
