"""Command-line front end: simulate, convergence, stability, verify-oracle.

Configuration can come from flags or from a plain "key = value" text file
(--config), which stands for the flags it names; flags win.  Numeric output
is written with shortest-round-trip formatting, so identical configurations
produce byte-identical files.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cases import build_case
from .exact import verify_exact
from .harness import convergence_study, run_to_periodicity, stability_run
from .params import params_for
from .splitting import check_positive

STABILITY_DTS = (0.1, 1.0, 10.0)
ORACLE_TOL = 1e-10
# relative weak-form residual of interpolated exact fields scales like h^2;
# measured ratio is <= 0.05 on the benchmark meshes, 0.5 leaves 10x margin
WEAK_BAND = 0.5


def float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def override(item: str) -> tuple:
    """--set NAME=VALUE as (NAME, VALUE)."""
    name, _, value = item.partition("=")
    return name.strip(), float(value)


# The run settings, one flag each; a --config file sets them by these keys.
RUN_SETTINGS = {
    "example": dict(type=int, choices=(1, 2, 3), default=1),
    "nonlinear": dict(action="store_true"),
    "dt": dict(type=float, default=0.01),
    "sub": dict(type=int, default=0, help="stage-2 substeps; 0 = per-example default"),
    "nx": dict(type=int, default=100),
    "ny": dict(type=int, default=20),
    "max_periods": dict(type=int, default=10),
    "eps_per": dict(type=float, default=1e-6),
    "steps": dict(type=int, default=200, help="steps of each stability run"),
    "dt_list": dict(type=float_list, help="comma-separated time steps"),
    "out": dict(default=""),
}


def _config_flags(path: str, reads) -> list:
    """The flags a `key = value` file stands for: `key = value` is
    --key-with-hyphens=value, `set.NAME = V` is --set=NAME=V, and
    `nonlinear = true` is --nonlinear (`false`: no flag).  The last line
    of a key wins; a key outside `reads` is an error."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as err:
        raise argparse.ArgumentTypeError(f"cannot read {path!r}: {err.strerror}") from None
    flags = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = (part.strip() for part in line.partition("="))
        where, flag = f"{path} line {lineno}", f"--{key.replace('_', '-')}"
        if not eq:
            raise argparse.ArgumentTypeError(f"{where}: expected 'key = value', got {line!r}")
        if key.startswith("set."):
            flags[key] = [f"--set={key[4:]}={val}"]
        elif key not in RUN_SETTINGS:
            raise argparse.ArgumentTypeError(f"{where}: unknown key {key!r}")
        elif key not in reads:
            raise argparse.ArgumentTypeError(f"{where}: this command does not read {flag}")
        elif key == "nonlinear":
            if val not in ("true", "false"):
                raise argparse.ArgumentTypeError(
                    f"{where}: nonlinear must be true or false, got {val!r}")
            flags[key] = ["--nonlinear"] if val == "true" else []
        else:
            flags[key] = [f"{flag}={val}"]
    return [flag for group in flags.values() for flag in group]


def substeps(cfg) -> int | None:
    """The stage-2 substeps, None for the case's own default (`--sub 0`)."""
    if cfg.sub < 0:
        raise ValueError(f"sub must be >= 0 (0 = per-example default), got sub={cfg.sub}")
    return cfg.sub or None


def parameters(cfg):
    return params_for(cfg.example).replace(**dict(cfg.overrides))


def _fmt(x) -> str:
    return repr(float(x))


def _write_series_csv(path: Path, result) -> None:
    system = result.case.system
    labels = ["_".join(str(i) for i in c.interface_id) for _, c in system.connections]
    cols = ["t"] + [f"{name}_{lbl}" for lbl in labels for name in ("P", "Q", "pi")]
    # the y0_ prefix keeps the column names of earlier series files
    cols += [f"y0_{j}" for j in range(system.circuit.dim)]
    cols += ["E_omega", "E_ups", "D_omega", "D_rc", "U_ups"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in result.series:
            vals = [_fmt(row.t)]
            for P, Q, pi in zip(system.interface_pressures(row), row.flows,
                                row.node_pressures):
                vals += [_fmt(P), _fmt(Q), _fmt(pi)]
            vals += [_fmt(v) for v in row.y]
            e = row.energy
            vals += [_fmt(e.e_omega), _fmt(e.e_ups), _fmt(e.d_omega),
                     _fmt(e.d_rc), _fmt(e.u_ups)]
            f.write(",".join(vals) + "\n")


def _write_summary(path: Path, cfg, result) -> None:
    e = result.series[0].energy
    lines = [
        "[run]",
        f"example = {cfg.example}",
        f"nonlinear = {str(cfg.nonlinear).lower()}",
        f"dt = {_fmt(cfg.dt)}",
        f"sub = {result.s_sub}",
        f"n_tau = {result.n_tau}",
        f"converged = {str(result.converged).lower()}",
        f"periods = {result.periods}",
        f"final_gap = {_fmt(result.final_gap) if result.final_gap is not None else 'n/a'}",
        "",
        "[initial energies]",
        f"E_omega = {_fmt(e.e_omega)}", f"E_ups = {_fmt(e.e_ups)}",
        f"D_omega = {_fmt(e.d_omega)}", f"D_rc = {_fmt(e.d_rc)}",
        f"U_ups = {_fmt(e.u_ups)}",
    ]
    if result.gaps:
        lines += ["", "[periodicity gaps]"]
        lines += [f"period {p} = {_fmt(g)}" for p, g in sorted(result.gaps.items())]
    if result.errors is not None:
        lines += ["", "[errors over last period]",
                  f"err_v = {_fmt(result.errors.err_v)}",
                  f"err_p = {_fmt(result.errors.err_p)}",
                  f"err_y = {_fmt(result.errors.err_y)}"]
    path.write_text("\n".join(lines) + "\n")


def _out_dir(cfg) -> Path:
    out = Path(cfg.out) if cfg.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg) -> int:
    case = build_case(cfg.example, nonlinear=cfg.nonlinear, nx=cfg.nx, ny=cfg.ny,
                      params=parameters(cfg))
    result = run_to_periodicity(case, cfg.dt, s_sub=substeps(cfg),
                                eps_per=cfg.eps_per, max_periods=cfg.max_periods)
    out = _out_dir(cfg)
    _write_series_csv(out / "series.csv", result)
    _write_summary(out / "summary.txt", cfg, result)
    if cfg.max_periods == 0:
        print(f"wrote initial summary to {out}")
        return 0
    status = "periodic" if result.converged else "NOT periodic"
    print(f"{status} after {result.periods} periods (gap "
          f"{result.final_gap if result.final_gap is not None else 'n/a'}); "
          f"output in {out}")
    return 0 if result.converged else 1


def cmd_convergence(cfg) -> int:
    study = convergence_study(
        lambda: build_case(cfg.example, nonlinear=cfg.nonlinear, nx=cfg.nx,
                           ny=cfg.ny, params=parameters(cfg)),
        cfg.dt_list, eps_per=cfg.eps_per, max_periods=cfg.max_periods,
        s_sub=substeps(cfg))

    lines = ["[convergence]", f"example = {cfg.example}",
             f"nonlinear = {str(cfg.nonlinear).lower()}", "",
             "[errors]", "dt,err_v,err_p,err_y,periods"]
    for dt, err, periods, _ in study.rows:
        lines.append(f"{_fmt(dt)},{_fmt(err.err_v)},{_fmt(err.err_p)},"
                     f"{_fmt(err.err_y)},{periods}")
    if study.slopes:
        lines += ["", "[slopes]"]
        lines += [f"{k} = {_fmt(v)}" for k, v in sorted(study.slopes.items())]
    if cfg.example == 1:
        lines += ["", "[peak errors, interface 1_1_1]", "dt,P,Q"]
        for dt, _, _, peaks in study.rows:
            peak = peaks[(1, 1, 1)]
            lines.append(f"{_fmt(dt)},{_fmt(peak['P'])},{_fmt(peak['Q'])}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if cfg.out:
        (_out_dir(cfg) / "convergence.txt").write_text(text)
    return 0


def cmd_stability(cfg) -> int:
    for dt in cfg.dt_list:      # every dt before any run, not one sweep at a time
        check_positive("dt", dt)
    s_sub = substeps(cfg)
    case = build_case(cfg.example, nonlinear=False, nx=cfg.nx, ny=cfg.ny,
                      params=parameters(cfg), zero_forcing=True)
    lines = ["[stability]", f"example = {cfg.example}", f"steps = {cfg.steps}",
             f"explicit_pi = {str(cfg.explicit_pi).lower()}", "",
             "dt,E0,max_increase,chain_violation,identity_residual,verdict"]
    ok = True
    for dt in cfg.dt_list:
        rep = stability_run(case, dt, cfg.steps, s_sub=s_sub,
                            explicit_pi=cfg.explicit_pi)
        passed = rep.passed()
        ok = ok and passed
        lines.append(f"{_fmt(dt)},{_fmt(rep.e0)},{_fmt(rep.max_increase)},"
                     f"{_fmt(rep.chain_violation)},{_fmt(rep.max_identity_residual)},"
                     f"{'PASS' if passed else 'FAIL'}")
    lines.append("")
    lines.append(f"overall = {'PASS' if ok else 'FAIL'}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if cfg.out:
        (_out_dir(cfg) / "stability.txt").write_text(text)
    return 0 if ok else 1


def cmd_verify_oracle(cfg) -> int:
    # a zero or negative circuit element fails the oracle; any other
    # settings mistake exits 2, as in the other commands
    params = parameters(cfg)
    try:
        params.check_circuit_elements()
    except ValueError as err:
        print(f"FAIL parameter_validity: {err}")
        return 1
    case = build_case(cfg.example, nonlinear=cfg.nonlinear, nx=cfg.nx,
                      ny=cfg.ny, params=params)
    import numpy as np
    times = np.linspace(0.0, case.tau, 100, endpoint=False)
    report = verify_exact(case.system, case.exact, times)
    ok = True
    lines = []
    for name, value in report.rows():
        if name == "weak_form_relative_residual":
            threshold = WEAK_BAND * report.mesh_h ** 2
        else:
            threshold = ORACLE_TOL
        passed = value <= threshold
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name} = {value:.3e} "
                     f"(threshold {threshold:.3e})")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if cfg.out:
        (_out_dir(cfg) / "oracle.txt").write_text(text)
    return 0 if ok else 1


# command: (function, the run settings it reads as flags, its own defaults)
COMMANDS = {
    "simulate": (cmd_simulate, ("example", "nonlinear", "dt", "sub", "nx", "ny", "max_periods",
                                "eps_per", "out"), {}),
    "convergence": (cmd_convergence, ("example", "nonlinear", "dt_list", "sub", "nx", "ny",
                                      "max_periods", "eps_per", "out"), {"dt_list": (0.01,)}),
    "stability": (cmd_stability, ("example", "dt_list", "sub", "nx", "ny", "steps", "out"),
                  {"dt_list": STABILITY_DTS}),
    "verify-oracle": (cmd_verify_oracle, ("example", "nonlinear", "nx", "ny", "out"), {}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes0d", allow_abbrev=False,
        description="Coupled Stokes / lumped-circuit benchmark driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads, defaults) in COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", type=lambda path, reads=reads: _config_flags(path, reads),
                       help="key = value file; flags override it")
        for key in reads:
            p.add_argument(f"--{key.replace('_', '-')}", **RUN_SETTINGS[key])
        p.set_defaults(**defaults)
        p.add_argument("--set", dest="overrides", type=override, action="append",
                       default=[], metavar="KEY=VALUE", help="parameter override")
        if name == "stability":
            p.add_argument("--explicit-pi", action="store_true",
                           help="test-only: lag the node pressures in stage 1")
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The run settings of a command line.  A --config file's flags go
    between the subcommand and the command line's own, so that those win."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args([argv[0], *args.config, *argv[1:]])
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except (ValueError, ZeroDivisionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
