"""Golden trajectories: exact results of short coarse runs, kept as float.hex.

    PYTHONPATH=src python tests/golden_trajectories.py --write

recomputes every record and overwrites tests/golden/*.json.  Do this only
for a change that is meant to move results, and say so with the commit;
test_golden.py compares the committed files with fresh runs.

Each file records the platform it was made on (numpy, scipy and their
OpenBLAS builds, the machine and numpy's CPU features).  On that platform
the check compares bytes; elsewhere round-off may differ, and it compares
within the tolerances of `TOLERANCES` instead.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform as _platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from stokes0d import build_case, cli
from stokes0d.harness import run_to_periodicity, stability_run

GOLDEN = Path(__file__).resolve().parent / "golden"
NX, NY = 20, 4
PERIODIC_DT = 0.05
PERIODIC_CASES = ((1, False), (1, True), (2, False), (3, False))
STABILITY_DTS = (0.01, 1.0, 100.0)
STABILITY_STEPS = 20
FORCED_CASES = ((1, True), (2, False), (3, False))
FORCED_DTS = (0.01, 1.0)
CLI_PERIODS = 3

# Off the recorded platform: (rtol, atol) per field.  The errors and the
# stored energy match the benchmark gate's 1e-6; the energy differences get
# the 1e-12 E0 slack of StabilityReport.passed(); the gaps an absolute
# thousandth of the default eps_per, since a converged gap is round-off.
TOLERANCES = {
    "errors": (1e-6, 0.0),
    "gaps": (1e-6, 1e-9),
    "final_state_norms": (1e-6, 0.0),
    "e0": (1e-6, 0.0),
    "max_increase": (1e-6, 1e-12),      # atol in units of e0
    "chain_violation": (1e-6, 1e-12),   # atol in units of e0
    "max_identity_residual": (1e-6, 1e-12),
    # every number in a CLI summary.txt: energies, gaps, errors and settings
    "summary": (1e-6, 1e-9),
}


def _blas(show_config) -> str:
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):   # a build without the dict mode or entry
        return "unknown"


def platform_record() -> dict:
    core = np._core if hasattr(np, "_core") else np.core
    features = core._multiarray_umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "numpy_blas": _blas(np.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy.show_config),
        "machine": _platform.machine(),
        "cpu_features": sorted(k for k, on in features.items() if on),
    }


def _hex(x) -> str:
    return float(x).hex()


def state_digest(state) -> str:
    """sha256 over the clock, every array's little-endian bytes and the
    interface values in interface order."""
    h = hashlib.sha256(_hex(state.t).encode())
    for arrays in (state.velocities, state.pressures, state.ys):
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    for iid in sorted(state.interfaces):
        iv = state.interfaces[iid]
        h.update(" ".join(map(_hex, (iv.P, iv.Q, iv.pi))).encode())
    return h.hexdigest()


def periodic_records() -> list:
    out = []
    for example, nonlinear in PERIODIC_CASES:
        case = build_case(example, nonlinear=nonlinear, nx=NX, ny=NY)
        res = run_to_periodicity(case, PERIODIC_DT, collect_series=False)
        s = res.final_state
        out.append({
            "example": example, "nonlinear": nonlinear, "dt": PERIODIC_DT,
            "converged": res.converged, "periods": res.periods,
            "gaps": {str(p): _hex(g) for p, g in sorted(res.gaps.items())},
            "errors": {k: _hex(getattr(res.errors, k))
                       for k in ("err_v", "err_p", "err_y")},
            "final_state_sha256": state_digest(s),
            "final_state_norms": [_hex(np.linalg.norm(a))
                                  for a in (*s.velocities, *s.pressures, *s.ys)],
        })
    return out


def _report_fields(rep) -> dict:
    return {k: _hex(getattr(rep, k)) for k in
            ("e0", "max_increase", "chain_violation", "max_identity_residual")}


def stability_records() -> list:
    case = build_case(1, nx=NX, ny=NY, zero_forcing=True)
    out = []
    for dt in STABILITY_DTS:
        for explicit_pi in (False, True):
            rep = stability_run(case, dt, STABILITY_STEPS, explicit_pi=explicit_pi)
            out.append({"dt": dt, "explicit_pi": explicit_pi, "n_steps": rep.n_steps,
                        **_report_fields(rep)})
    return out


def forced_stability_records() -> list:
    """The stability audit of the forced benchmarks, where every input that
    depends on time enters the energy chain."""
    out = []
    for example, nonlinear in FORCED_CASES:
        case = build_case(example, nonlinear=nonlinear, nx=NX, ny=NY)
        for dt in FORCED_DTS:
            rep = stability_run(case, dt, STABILITY_STEPS)
            out.append({"example": example, "nonlinear": nonlinear, "dt": dt,
                        "explicit_pi": False, "n_steps": rep.n_steps,
                        **_report_fields(rep)})
    return out


def _summary_numbers(text: str) -> dict:
    """Every `key = number` line of a summary.txt, as float.hex."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        try:
            out[key] = _hex(float(value))
        except ValueError:
            pass
    return out


def cli_records() -> list:
    """sha256 of the files of `stokes0d simulate` runs of CLI_PERIODS periods,
    with the line counts and the summary's numbers for other platforms."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for example, nonlinear in FORCED_CASES:
            args = ["simulate", "--example", str(example), "--nx", str(NX),
                    "--ny", str(NY), "--dt", str(PERIODIC_DT),
                    "--max-periods", str(CLI_PERIODS)] + (["--nonlinear"] if nonlinear else [])
            folder = Path(tmp) / f"example{example}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args + ["--out", str(folder)])
            files = {}
            for name in ("series.csv", "summary.txt"):
                data = (folder / name).read_bytes()
                files[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                               "lines": data.count(b"\n")}
            out.append({"args": args, "exit_code": code, "files": files,
                        "summary": _summary_numbers((folder / "summary.txt").read_text())})
    return out


RECORDS = {"periodic": periodic_records, "stability": stability_records,
           "forced_stability": forced_stability_records, "cli": cli_records}


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    GOLDEN.mkdir(exist_ok=True)
    for name, make in RECORDS.items():
        doc = {"platform": platform_record(), "nx": NX, "ny": NY,
               "records": make()}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {GOLDEN / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
