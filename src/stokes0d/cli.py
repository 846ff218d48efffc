"""Command-line front end: simulate, convergence, stability, verify-oracle.

Configuration can come from flags or from a plain "key = value" text file
(--config); flags win.  Numeric output is written with shortest-round-trip
formatting, so identical configurations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .cases import DEFAULT_SUBSTEPS, build_case
from .exact import verify_exact
from .harness import (convergence_study, peak_errors, run_to_periodicity,
                      stability_run)
from .params import params_for
from .splitting import check_positive

CONVERGENCE_DTS = (0.01, 0.005, 0.001)
STABILITY_DTS = (0.1, 1.0, 10.0)
ORACLE_TOL = 1e-10
# relative weak-form residual of interpolated exact fields scales like h^2;
# measured ratio is <= 0.05 on the benchmark meshes, 0.5 leaves 10x margin
WEAK_BAND = 0.5


@dataclass
class RunConfig:
    example: int = 1
    nonlinear: bool = False
    dt: float = 0.01
    sub: int = 0                 # 0 = per-example default
    nx: int = 100
    ny: int = 20
    max_periods: int = 10
    eps_per: float = 1e-6
    steps: int = 200             # stability runs
    dt_list: tuple = ()
    overrides: dict = field(default_factory=dict)
    out: str = ""

    def substeps(self) -> int:
        if self.sub < 0:
            raise ValueError(f"sub must be >= 0 (0 = per-example default), got sub={self.sub}")
        return self.sub if self.sub > 0 else DEFAULT_SUBSTEPS[self.example]

    def parameters(self):
        return params_for(self.example).replace(**self.overrides)


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key.startswith("set."):
            cfg.overrides[key[4:]] = float(val)
        elif key == "dt_list":
            cfg.dt_list = tuple(float(v) for v in val.split(",") if v)
        elif key in ("example", "sub", "nx", "ny", "max_periods", "steps"):
            setattr(cfg, key, int(val))
        elif key in ("dt", "eps_per"):
            setattr(cfg, key, float(val))
        elif key == "nonlinear":
            setattr(cfg, key, val.lower() in ("true", "1", "yes"))
        elif key == "out":
            cfg.out = val
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return cfg


def _fmt(x) -> str:
    return repr(float(x))


def _interface_label(iid) -> str:
    return "_".join(str(i) for i in iid)


def _write_series_csv(path: Path, result) -> None:
    iids = [c.interface_id for _, _, c in result.case.system.connections]
    cols = ["t"]
    for iid in iids:
        lbl = _interface_label(iid)
        cols += [f"P_{lbl}", f"Q_{lbl}", f"pi_{lbl}"]
    for m, spec in enumerate(result.case.system.circuits):
        cols += [f"y{m}_{j}" for j in range(spec.dim)]
    cols += ["E_omega", "E_ups", "D_omega", "D_rc", "U_ups"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for row in result.series:
            vals = [_fmt(row.t)]
            for iid in iids:
                iv = row.interfaces[iid]
                vals += [_fmt(iv.P), _fmt(iv.Q), _fmt(iv.pi)]
            for y in row.ys:
                vals += [_fmt(v) for v in y]
            e = row.energy
            vals += [_fmt(e.e_omega), _fmt(e.e_ups), _fmt(e.d_omega),
                     _fmt(e.d_rc), _fmt(e.u_ups)]
            f.write(",".join(vals) + "\n")


def _write_summary(path: Path, cfg: RunConfig, result) -> None:
    lines = [
        "[run]",
        f"example = {cfg.example}",
        f"nonlinear = {str(cfg.nonlinear).lower()}",
        f"dt = {_fmt(cfg.dt)}",
        f"sub = {cfg.substeps()}",
        f"n_tau = {result.n_tau}",
        f"converged = {str(result.converged).lower()}",
        f"periods = {result.periods}",
        f"final_gap = {_fmt(result.final_gap) if result.final_gap is not None else 'n/a'}",
        "",
        "[initial energies]",
    ]
    e = result.series[0].energy if result.series else None
    if e is not None:
        lines += [f"E_omega = {_fmt(e.e_omega)}", f"E_ups = {_fmt(e.e_ups)}",
                  f"D_omega = {_fmt(e.d_omega)}", f"D_rc = {_fmt(e.d_rc)}",
                  f"U_ups = {_fmt(e.u_ups)}"]
    if result.gaps:
        lines += ["", "[periodicity gaps]"]
        lines += [f"period {p} = {_fmt(g)}" for p, g in sorted(result.gaps.items())]
    if result.errors is not None:
        lines += ["", "[errors over last period]",
                  f"err_v = {_fmt(result.errors.err_v)}",
                  f"err_p = {_fmt(result.errors.err_p)}",
                  f"err_y = {_fmt(result.errors.err_y)}"]
    path.write_text("\n".join(lines) + "\n")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out) if cfg.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(cfg: RunConfig) -> int:
    case = build_case(cfg.example, nonlinear=cfg.nonlinear, nx=cfg.nx, ny=cfg.ny,
                      params=cfg.parameters())
    result = run_to_periodicity(case, cfg.dt, s_sub=cfg.substeps(),
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


def cmd_convergence(cfg: RunConfig) -> int:
    dts = cfg.dt_list if cfg.dt_list else (cfg.dt,)
    peaks = {}

    def on_result(dt, res):
        if cfg.example == 1:
            peaks[dt] = peak_errors(res, (1, 1, 1))

    study = convergence_study(
        lambda: build_case(cfg.example, nonlinear=cfg.nonlinear, nx=cfg.nx,
                           ny=cfg.ny, params=cfg.parameters()),
        dts, eps_per=cfg.eps_per, max_periods=cfg.max_periods,
        s_sub=cfg.substeps(), collect_series=cfg.example == 1,
        on_result=on_result)

    lines = ["[convergence]", f"example = {cfg.example}",
             f"nonlinear = {str(cfg.nonlinear).lower()}", "",
             "[errors]", "dt,err_v,err_p,err_y,periods"]
    for dt, err, periods, _ in study.rows:
        lines.append(f"{_fmt(dt)},{_fmt(err.err_v)},{_fmt(err.err_p)},"
                     f"{_fmt(err.err_y)},{periods}")
    if study.slopes:
        lines += ["", "[slopes]"]
        lines += [f"{k} = {_fmt(v)}" for k, v in sorted(study.slopes.items())]
    if peaks:
        lines += ["", "[peak errors, interface 1_1_1]", "dt,P,Q"]
        for dt in sorted(peaks, reverse=True):
            lines.append(f"{_fmt(dt)},{_fmt(peaks[dt]['P'])},{_fmt(peaks[dt]['Q'])}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if cfg.out:
        (_out_dir(cfg) / "convergence.txt").write_text(text)
    return 0


def cmd_stability(cfg: RunConfig, explicit_pi: bool = False) -> int:
    dts = cfg.dt_list if cfg.dt_list else STABILITY_DTS
    for dt in dts:      # every dt before any run, not one sweep at a time
        check_positive("dt", dt)
    if cfg.steps < 1:
        raise ValueError(f"steps must be >= 1, got steps={cfg.steps}")
    s_sub = cfg.substeps()
    case = build_case(cfg.example, nonlinear=False, nx=cfg.nx, ny=cfg.ny,
                      params=cfg.parameters(), zero_forcing=True)
    lines = ["[stability]", f"example = {cfg.example}", f"steps = {cfg.steps}",
             f"explicit_pi = {str(explicit_pi).lower()}", "",
             "dt,E0,max_increase,chain_violation,identity_residual,verdict"]
    ok = True
    for dt in dts:
        rep = stability_run(case, dt, cfg.steps, s_sub=s_sub,
                            explicit_pi=explicit_pi)
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


def cmd_verify_oracle(cfg: RunConfig) -> int:
    params = cfg.parameters()
    try:
        case = build_case(cfg.example, nonlinear=cfg.nonlinear, nx=cfg.nx,
                          ny=cfg.ny, params=params)
    except (ValueError, ZeroDivisionError) as err:
        print(f"FAIL parameter_validity: {err}")
        return 1
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes0d",
        description="Coupled Stokes / lumped-circuit benchmark driver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "convergence", "stability", "verify-oracle"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="key = value file; flags override it")
        p.add_argument("--example", type=int, choices=(1, 2, 3))
        p.add_argument("--nonlinear", action="store_true", default=None)
        p.add_argument("--dt", type=float)
        p.add_argument("--sub", type=int)
        p.add_argument("--nx", type=int)
        p.add_argument("--ny", type=int)
        p.add_argument("--max-periods", dest="max_periods", type=int)
        p.add_argument("--eps-per", dest="eps_per", type=float)
        p.add_argument("--steps", type=int)
        p.add_argument("--dt-list", dest="dt_list", type=str,
                       help="comma-separated time steps")
        p.add_argument("--out", type=str)
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="parameter override")
        if name == "stability":
            p.add_argument("--explicit-pi", action="store_true",
                           help="test-only: lag the node pressures in stage 1")
    return parser


def _config_from_args(args) -> RunConfig:
    if args.config:
        cfg = parse_config(Path(args.config).read_text())
    else:
        cfg = RunConfig()
    for key in ("example", "dt", "sub", "nx", "ny", "max_periods", "eps_per",
                "steps", "out"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    if args.nonlinear is not None:
        cfg.nonlinear = args.nonlinear
    if args.dt_list:
        cfg.dt_list = tuple(float(v) for v in args.dt_list.split(",") if v)
    for item in args.overrides:
        if "=" not in item:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        cfg.overrides[key.strip()] = float(val)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "convergence":
            return cmd_convergence(cfg)
        if args.command == "stability":
            return cmd_stability(cfg, explicit_pi=getattr(args, "explicit_pi", False))
        return cmd_verify_oracle(cfg)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
