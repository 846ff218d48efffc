"""Short coarse runs against their committed golden results (golden/*.json).

On the platform the files were written on the results must match byte for
byte; elsewhere within golden_trajectories.TOLERANCES.  Either way the test
prints which comparison ran.  To regenerate, see golden_trajectories.py.
"""
import dataclasses
import json

import numpy as np
import pytest

import golden_trajectories as gt
from stokes0d import build_case


def _load(name):
    return json.loads((gt.GOLDEN / f"{name}.json").read_text())


def _close(field, got, want, scale=1.0):
    rtol, atol = gt.TOLERANCES[field]
    got = np.array([float.fromhex(x) for x in got])
    want = np.array([float.fromhex(x) for x in want])
    return got.shape == want.shape and np.allclose(got, want, rtol=rtol,
                                                   atol=atol * scale, equal_nan=True)


def _check_periodic(got, want):
    for g, w in zip(got, want):
        assert {k: g[k] for k in ("example", "nonlinear", "dt", "converged", "periods")} \
            == {k: w[k] for k in ("example", "nonlinear", "dt", "converged", "periods")}
        assert g["gaps"].keys() == w["gaps"].keys()
        assert _close("gaps", g["gaps"].values(), w["gaps"].values()), g
        assert _close("errors", g["errors"].values(), w["errors"].values()), g
        assert _close("final_state_norms", g["final_state_norms"],
                      w["final_state_norms"]), g


def _check_stability(got, want):
    for g, w in zip(got, want):
        assert {k: v for k, v in g.items() if not isinstance(v, str)} == \
            {k: v for k, v in w.items() if not isinstance(v, str)}
        e0 = float.fromhex(w["e0"])
        for field in ("e0", "max_increase", "chain_violation", "max_identity_residual"):
            scale = e0 if field in ("max_increase", "chain_violation") else 1.0
            assert _close(field, [g[field]], [w[field]], scale), (field, g)


def _check_cli(got, want):
    # the file hashes hold only on the recorded platform
    for g, w in zip(got, want):
        assert (g["args"], g["exit_code"]) == (w["args"], w["exit_code"])
        assert {n: f["lines"] for n, f in g["files"].items()} == \
            {n: f["lines"] for n, f in w["files"].items()}
        assert g["summary"].keys() == w["summary"].keys()
        assert _close("summary", g["summary"].values(), w["summary"].values()), g


CHECKS = {"periodic": _check_periodic, "stability": _check_stability,
          "unforced_stability": _check_stability,
          "forced_stability": _check_stability, "cli": _check_cli}


def _moved(name, records):
    """A copy of the records with one error or energy moved by 1e-5 relative."""
    moved = json.loads(json.dumps(records))
    first = moved[0]
    field, key = {"periodic": ("errors", "err_v"), "cli": ("summary", "E_omega")}.get(
        name, (None, "e0"))
    owner = first[field] if field else first
    owner[key] = (float.fromhex(owner[key]) * (1 + 1e-5)).hex()
    return moved


@pytest.fixture(scope="module")
def fresh():
    return {name: make() for name, make in gt.RECORDS.items()}


@pytest.mark.parametrize("name", list(gt.RECORDS))
def test_golden_trajectories(name, fresh):
    golden = _load(name)
    assert (golden["nx"], golden["ny"]) == (gt.NX, gt.NY)
    got = fresh[name]
    assert len(got) == len(golden["records"])
    if golden["platform"] == gt.platform_record():
        print(f"golden {name}: recorded platform, byte comparison")
        assert got == golden["records"]
    else:
        print(f"golden {name}: other platform, comparison within "
              f"golden_trajectories.TOLERANCES")
        CHECKS[name](got, golden["records"])


@pytest.mark.parametrize("name", list(gt.RECORDS))
def test_tolerance_comparison(name, fresh):
    # the comparison used off the recorded platform accepts this run and
    # rejects an error or energy moved by 1e-5 relative
    want = _load(name)["records"]
    CHECKS[name](fresh[name], want)
    with pytest.raises(AssertionError):
        CHECKS[name](_moved(name, fresh[name]), want)


def _flipped(x):
    """x with the lowest bit of its last entry flipped."""
    a = np.array(x, dtype="<f8")
    a.reshape(-1).view("<i8")[-1] ^= 1
    return a if np.ndim(x) else float(a)


def _changed_states(state):
    """(what changed, state) for each change of one value of one field of
    `state`: the last bit of each array and of the clock, each interface value."""
    for field in dataclasses.fields(state):
        name, value = field.name, getattr(state, field.name)
        if isinstance(value, (float, np.ndarray)):
            yield name, dataclasses.replace(state, **{name: _flipped(value)})
        elif isinstance(value, list):
            for k, a in enumerate(value):
                arrays = value[:k] + [_flipped(a)] + value[k + 1:]
                yield f"{name}[{k}]", dataclasses.replace(state, **{name: arrays})
        elif isinstance(value, dict):
            for key, iv in value.items():
                for part in dataclasses.fields(iv):
                    moved = dataclasses.replace(
                        iv, **{part.name: _flipped(getattr(iv, part.name))})
                    yield (f"{name}[{key}].{part.name}",
                           dataclasses.replace(state, **{name: {**value, key: moved}}))
        else:
            raise TypeError(f"no change defined for state field {name}: {type(value)}")


def test_state_digest_sees_every_field():
    # a field the digest leaves out would drop out of the bitwise check
    state = build_case(2, nx=4, ny=2).initial_state()
    base = gt.state_digest(state)
    changed = list(_changed_states(state))
    assert len(changed) == 1 + 2 + 2 + 1 + 3 * 2    # t, velocities, pressures, y, P/Q/pi
    for what, other in changed:
        assert gt.state_digest(other) != base, what
    assert gt.state_digest(state) == base


def test_diff_names_each_changed_field():
    # --diff's comparison of synthetic records: a moved number gives its
    # relative change, a digest "changed", a flag or count its two values
    want = [{"example": 1, "nonlinear": True, "dt": 0.05, "converged": True,
             "gaps": {"2": (0.5).hex()}, "final_state_sha256": "ab" * 32,
             "final_state_norms": [(2.0).hex(), (8.0).hex()]},
            {"example": 3, "nonlinear": False, "dt": 0.05, "converged": True,
             "gaps": {"2": (0.25).hex()}, "final_state_sha256": "cd" * 32,
             "final_state_norms": [(1.0).hex()]}]
    got = json.loads(json.dumps(want))
    assert gt.diff("periodic", got, want) == [
        "periodic[0] example=1, nonlinear=True, dt=0.05: unchanged",
        "periodic[1] example=3, nonlinear=False, dt=0.05: unchanged"]
    got[0].update(converged=False, final_state_sha256="ef" * 32)
    got[0]["final_state_norms"][1] = (8.0 * (1 + 2 ** -40)).hex()
    got[0]["gaps"]["2"] = (0.0).hex()
    assert gt.diff("periodic", got, want) == [
        "periodic[0] example=1, nonlinear=True, dt=0.05: changed",
        "  converged: True -> False",
        "  gaps.2: 1.0e+00 relative",
        "  final_state_sha256: changed",
        "  final_state_norms[1]: 9.1e-13 relative",
        "periodic[1] example=3, nonlinear=False, dt=0.05: unchanged"]
    cli = [{"args": ["simulate", "--example", "3"], "exit_code": 0,
            "summary": {"E_omega": (0.0).hex()}}]
    moved = [{**cli[0], "summary": {"E_omega": (1.0).hex()}}]
    assert gt.diff("cli", moved, cli) == [
        "cli[0] simulate --example 3: changed", "  summary.E_omega: 0.0 -> 1.0"]
    assert gt.diff("cli", [], cli) == ["cli: 0 records, 1 committed"]
