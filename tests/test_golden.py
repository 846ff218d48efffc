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
        assert (g["dt"], g["explicit_pi"], g["n_steps"]) == \
            (w["dt"], w["explicit_pi"], w["n_steps"])
        e0 = float.fromhex(w["e0"])
        for field in ("e0", "max_increase", "chain_violation", "max_identity_residual"):
            scale = e0 if field in ("max_increase", "chain_violation") else 1.0
            assert _close(field, [g[field]], [w[field]], scale), (field, g)


CHECKS = {"periodic": _check_periodic, "stability": _check_stability}


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
    moved = json.loads(json.dumps(fresh[name]))
    if name == "periodic":
        moved[0]["errors"]["err_v"] = (float.fromhex(moved[0]["errors"]["err_v"])
                                       * (1 + 1e-5)).hex()
    else:
        moved[0]["e0"] = (float.fromhex(moved[0]["e0"]) * (1 + 1e-5)).hex()
    with pytest.raises(AssertionError):
        CHECKS[name](moved, want)
