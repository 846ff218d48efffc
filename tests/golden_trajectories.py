"""Golden trajectories: exact results of short coarse runs, kept as float.hex.

    PYTHONPATH=src python tests/golden_trajectories.py --write
    PYTHONPATH=src python tests/golden_trajectories.py --diff

--write recomputes every record and overwrites tests/golden/*.json.  Do
this only for a change that is meant to move results, and say so with the
commit; test_golden.py compares the committed files with fresh runs.
--diff recomputes the records, writes nothing, and prints for each
committed record "unchanged" or each changed field with its relative
change; it exits 1 when a record changed.

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
UNFORCED_EXAMPLES = (2, 3)
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


def state_digest(state, system) -> str:
    """sha256 over the clock, every field array's little-endian bytes (the
    mass products among them) and each connection's P, Q and pi, in the
    order of the interface ids."""
    h = hashlib.sha256(_hex(state.t).encode())
    for arrays in (state.velocities, state.pressures, [state.y], state.mass_products):
        for a in arrays:
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    values = zip(system.interface_pressures(state), state.flows, state.node_pressures)
    for _, PQpi in sorted(zip((c.interface_id for _, c in system.connections), values)):
        h.update(" ".join(map(_hex, PQpi)).encode())
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
            "final_state_sha256": state_digest(s, case.system),
            "final_state_norms": [_hex(np.linalg.norm(a))
                                  for a in (*s.velocities, *s.pressures, s.y)],
        })
    return out


def _report_fields(rep) -> dict:
    return {k: _hex(getattr(rep, k)) for k in
            ("e0", "max_increase", "chain_violation", "max_identity_residual")}


def _unforced_stability(example) -> list:
    """(dt, explicit_pi, StabilityReport) of the unforced benchmark at every
    dt of STABILITY_DTS, implicit and with explicit_pi."""
    case = build_case(example, nx=NX, ny=NY, zero_forcing=True)
    return [(dt, explicit_pi,
             stability_run(case, dt, STABILITY_STEPS, explicit_pi=explicit_pi))
            for dt in STABILITY_DTS for explicit_pi in (False, True)]


def stability_records() -> list:
    return [{"dt": dt, "explicit_pi": explicit_pi, "n_steps": rep.n_steps,
             **_report_fields(rep)}
            for dt, explicit_pi, rep in _unforced_stability(1)]


def unforced_stability_records() -> list:
    """Unforced benchmarks 2 and 3: two flow domains or two connections, so
    the stage-1 coupling and the explicit_pi right-hand side are exercised
    on more than one interface."""
    return [{"example": example, "dt": dt, "explicit_pi": explicit_pi,
             "n_steps": rep.n_steps, **_report_fields(rep)}
            for example in UNFORCED_EXAMPLES
            for dt, explicit_pi, rep in _unforced_stability(example)]


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
           "unforced_stability": unforced_stability_records,
           "forced_stability": forced_stability_records, "cli": cli_records}


def changes(got, want, field="") -> list:
    """(field, change) of each value where record `got` differs from `want`:
    the relative change of a float.hex number, "old -> new" of anything
    else, "changed" of a digest."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [c for k in want
                for c in changes(got[k], want[k], f"{field}.{k}" if field else k)]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [c for i, (g, w) in enumerate(zip(got, want))
                for c in changes(g, w, f"{field}[{i}]")]
    if got == want:
        return []
    if all(isinstance(x, str) and "0x" in x for x in (got, want)):
        g, w = float.fromhex(got), float.fromhex(want)
        return [(field, f"{abs(g - w) / abs(w):.1e} relative" if w else f"{w!r} -> {g!r}")]
    if "sha256" in field:
        return [(field, "changed")]
    return [(field, f"{want!r} -> {got!r}")]


def _label(record) -> str:
    if "args" in record:
        return " ".join(record["args"])
    return ", ".join(f"{k}={record[k]}" for k in ("example", "nonlinear", "dt", "explicit_pi")
                     if k in record)


def diff(name, got, want) -> list:
    """Lines naming each committed record of `want` with "unchanged" or
    each field that `got` changes."""
    lines = []
    for i, (g, w) in enumerate(zip(got, want)):
        found = changes(g, w)
        lines.append(f"{name}[{i}] {_label(w)}: {'changed' if found else 'unchanged'}")
        lines += [f"  {field}: {change}" for field, change in found]
    if len(got) != len(want):
        lines.append(f"{name}: {len(got)} records, {len(want)} committed")
    return lines


def main(argv) -> int:
    if argv == ["--diff"]:
        changed = False
        for name, make in RECORDS.items():
            doc = json.loads((GOLDEN / f"{name}.json").read_text())
            if doc["platform"] != platform_record():
                print(f"{name}: committed on another platform")
            lines = diff(name, make(), doc["records"])
            changed = changed or any(not line.endswith(": unchanged") for line in lines)
            print("\n".join(lines))
        return 1 if changed else 0
    if argv != ["--write"]:
        print("\n".join(__doc__.strip().splitlines()[2:4]), file=sys.stderr)
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
