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
    # step of s_sub substeps must be one call with n_sub = s_sub per circuit
    n_sub = _spans()._n_sub
    real = splitting.step2_integrate
    calls = []

    def spy(*args, **kwargs):
        calls.append(n_sub(args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(splitting, "step2_integrate", spy)
    case = build_case(3, nx=8, ny=2)
    splitting.step2(case.system, case.initial_state(), 0.01, 5)
    assert calls == [5] * len(case.system.circuits)
