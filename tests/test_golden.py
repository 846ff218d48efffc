"""Short coarse runs against their committed golden results (golden/*.json).

On the platform the files were written on the results must match byte for
byte; elsewhere within golden_trajectories.TOLERANCES.  Either way the test
prints which comparison ran.  To regenerate, see golden_trajectories.py.
"""
import json

import numpy as np
import pytest

import golden_trajectories as gt


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
