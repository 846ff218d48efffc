"""The benchmark's tracer wraps program functions by name; every name it
lists must still resolve, or the traced metrics silently read 0."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from stokes0d import build_case, splitting

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _targets():
    return _spans().TARGETS


@pytest.mark.parametrize("module, path", [(m, p) for m, p, _, _ in _targets()])
def test_traced_hook_resolves_to_a_callable(module, path):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_step2_integrate_takes_n_sub_fourth():
    # the tracer reads the substep count as kwargs["n_sub"] or args[3]
    params = list(inspect.signature(splitting.step2_integrate).parameters)
    assert params[3] == "n_sub"


def test_one_stage2_call_integrates_every_substep(monkeypatch):
    # circuits.substeps sums n_sub over step2_integrate calls, so one global
    # step of s_sub substeps must be one call with n_sub = s_sub
    n_sub = _spans()._n_sub
    real = splitting.step2_integrate
    calls = []

    def spy(*args, **kwargs):
        calls.append(n_sub(args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(splitting, "step2_integrate", spy)
    case = build_case(3, nx=8, ny=2)
    splitting.run(case.system, case.initial_state(), splitting.StepConfig(0.01, 5), 1)
    assert calls == [5]


def test_stage1_solver_exposes_size_and_lu_factors():
    # the benchmark reads n, nnz and the L+U fill from these attributes and
    # reports zero fill when one of them is missing
    solver = build_case(1, nx=8, ny=2).system.step1_solver(0.01)
    lu = solver.factorization._lu
    assert solver.n == solver.matrix.shape[0] and solver.matrix.nnz > 0
    assert lu.L.nnz > 0 and lu.U.nnz > 0


def test_every_traced_run_phase_is_called():
    # a traced name that the drivers never call through still resolves, yet
    # its metric reads 0 in every run: the drivers' own runs must open every
    # span that a run-phase metric reads
    from stokes0d import harness
    spans = _spans()
    tracer = spans.Tracer()
    with tracer.installed():
        harness.stability_run(build_case(1, nx=8, ny=2, zero_forcing=True), 0.5, 3)
        res = harness.run_to_periodicity(build_case(3, nx=8, ny=2), 0.5, eps_per=1.0,
                                         max_periods=3)
    assert res.converged
    assert tracer.missing == []
    opened = {span[0] for span in tracer.spans}
    assert {name for name, _ in spans.RUN_METRICS.values()} - opened == set()


def test_drivers_call_run_through_the_splitting_module(monkeypatch):
    # the benchmark times the stability-sweep steps by patching
    # splitting.run, so the drivers must look it up there on every call, and
    # pass `observers` as a keyword: its wrapper takes them as one
    from stokes0d import harness
    real = splitting.run
    calls = []

    def spy(*args, **kwargs):
        assert "observers" in kwargs
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(splitting, "run", spy)
    case = build_case(1, nx=8, ny=2)
    harness.stability_run(case, 0.5, 3)
    assert calls == [3]
    res = harness.run_to_periodicity(case, 0.5, max_periods=2, collect_series=False)
    assert calls == [3] + [res.n_tau] * res.periods and res.periods == 2


def test_load_setup_is_one_call_per_forced_domain(monkeypatch):
    # the benchmark times fem.load_setup as cases.TimeSeparableLoad, so each
    # forced domain's load is built by one call there, an unforced case makes
    # none, and nothing else in the package calls it
    from stokes0d import cases
    real = cases.TimeSeparableLoad
    built = []

    def spy(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cases, "TimeSeparableLoad", spy)
    for example, n_domains in ((1, 1), (2, 2), (3, 1)):
        built.clear()
        case = build_case(example, nx=8, ny=2)
        assert len(built) == n_domains
        assert [dom.body_load for dom in case.system.domains] == built
        built.clear()
        build_case(example, nx=8, ny=2, zero_forcing=True)
        assert built == []
    package = Path(cases.__file__).parent
    users = {path.name: path.read_text().count("TimeSeparableLoad")
             for path in package.glob("*.py") if "TimeSeparableLoad" in path.read_text()}
    assert users == {"cases.py": 2}   # its definition and the call in build_case
    assert "TimeSeparableLoad(" in inspect.getsource(cases.build_case)
