import argparse
import shlex
from pathlib import Path

import pytest

from stokes0d.cli import RUN_SETTINGS, _build_parser, main, parameters, parse_args

COARSE = ["--nx", "16", "--ny", "4"]
README = Path(__file__).resolve().parents[1] / "README.md"

# the run settings each command reads; every command also takes --config
# and --set, and stability --explicit-pi
READS = {
    "simulate": ("example", "nonlinear", "dt", "sub", "nx", "ny", "max_periods",
                 "eps_per", "out"),
    "convergence": ("example", "nonlinear", "dt_list", "sub", "nx", "ny", "max_periods",
                    "eps_per", "out"),
    "stability": ("example", "dt_list", "sub", "nx", "ny", "steps", "out"),
    "verify-oracle": ("example", "nonlinear", "nx", "ny", "out"),
}


def _exit(argv):
    """main's exit status, argparse's own exits included."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


# a value for each run setting: its text in a file or on a flag, and its value
SETTING_VALUES = {
    "example": ("2", 2), "nonlinear": ("true", True), "dt": ("0.004", 0.004),
    "sub": ("7", 7), "nx": ("40", 40), "ny": ("8", 8), "max_periods": ("4", 4),
    "eps_per": ("1e-7", 1e-7), "steps": ("33", 33),
    "dt_list": ("0.01,0.002", (0.01, 0.002)), "out": ("results", "results"),
}


def test_config_roundtrip(tmp_path):
    # for each command, a config file with every key the command reads
    # parses to the namespace of the flags it stands for
    path = tmp_path / "run.cfg"
    for command, keys in READS.items():
        path.write_text("# every key\n" + "".join(
            f"{key} = {SETTING_VALUES[key][0]}\n" for key in keys) + "set.R_b = 12.5\n")
        flags = []
        for key in keys:
            flag = "--" + key.replace("_", "-")
            flags += [flag] if key == "nonlinear" else [flag, SETTING_VALUES[key][0]]
        from_file = vars(parse_args([command, "--config", str(path)]))
        from_flags = vars(parse_args([command, *flags, "--set", "R_b=12.5"]))
        assert from_file.pop("config") and from_flags.pop("config") is None
        want = dict(command=command, overrides=[("R_b", 12.5)],
                    **{key: SETTING_VALUES[key][1] for key in keys})
        if command == "stability":
            want["explicit_pi"] = False
        assert from_file == from_flags == want, command
    # flags win wherever they stand; a file's last line of a key wins
    path.write_text("dt = 0.5\nnonlinear = true\nnonlinear = false\nset.R_b = 5\n")
    args = parse_args(["simulate", "--dt", "0.25", "--set", "R_b=7",
                       "--config", str(path)])
    assert (args.dt, args.nonlinear, parameters(args).R_b) == (0.25, False, 7.0)


def test_config_parse_errors(tmp_path, capsys):
    # the keys are the run settings' flag names with "_", spelled out
    path = tmp_path / "run.cfg"
    for text, message in (("bogus = 1\n", "line 1: unknown key 'bogus'"),
                          ("nx = 8\njust some text\n", "line 2: expected 'key = value'"),
                          ("max-periods = 2\n", "unknown key 'max-periods'"),
                          ("ste = 2\n", "unknown key 'ste'"),
                          ("explicit_pi = true\n", "unknown key 'explicit_pi'"),
                          # false stands for no flag, yet stability reads no nonlinear
                          ("nonlinear = false\n",
                           "line 1: this command does not read --nonlinear")):
        path.write_text(text)
        assert _exit(["stability", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
    missing = str(tmp_path / "none.cfg")
    assert _exit(["stability", "--config", missing]) == 2
    err = capsys.readouterr().err
    assert "--config" in err and missing in err


@pytest.mark.parametrize("line, flags, key", [
    ("example = 4", ["--example", "4"], "example"),
    ("nonlinear = ture", ["--nonlinear=ture"], "nonlinear"),
    ("sub = 2.5", ["--sub", "2.5"], "sub"),
    ("set.R_b = abc", ["--set", "R_b=abc"], "R_b"),
    ("set.R_b", ["--set", "R_b"], "R_b"),
    # divided by somewhere, so rejected by name before anything runs
    ("set.omega = 0", ["--set", "omega=0"], "omega=0.0"),
    ("set.H = 0", ["--set", "H=0"], "H=0.0"),
    ("set.rho = -1", ["--set", "rho=-1"], "rho=-1.0"),
    ("set.mu = -1", ["--set", "mu=-1"], "mu=-1.0"),
    ("set.L = 0", ["--set", "L=0"], "L=0.0"),
])
def test_bad_setting_exits_2_naming_its_key(tmp_path, capsys, line, flags, key):
    # the same mistake as a config line and as a flag, to simulate, which
    # reads every one of these keys
    path = tmp_path / "run.cfg"
    out = tmp_path / "run"
    path.write_text(f"nx = 8\nny = 2\nmax_periods = 0\nout = {out}\n{line}\n")
    for argv in (["simulate", "--config", str(path)],
                 ["simulate", "--nx", "8", "--ny", "2", "--max-periods", "0",
                  "--out", str(out), *flags]):
        assert _exit(argv) == 2
        captured = capsys.readouterr()
        assert key in captured.err and captured.out == ""


def _subparsers(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_readme_command_lines_parse():
    # every `stokes0d ...` line of README's "Command line" section, with
    # [...] unwrapped and the --example N placeholder set to 1, 2 and 3
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [line.replace("[", "").replace("]", "") for line in section.splitlines()
             if line.startswith("stokes0d ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        for n in ("1", "2", "3"):
            argv = shlex.split(line.replace("--example N", f"--example {n}"))
            assert parser.parse_args(argv[1:]).command == argv[1]
    # the section's table of flags: a command has exactly the flags whose
    # cell is not "—"; a `value` cell is its default, "off" an unset switch
    table = [[cell.strip() for cell in line.strip().strip("|").split("|")]
             for line in section.splitlines() if line.startswith("| ")]
    header, rows = table[0], table[1:]
    assert rows and header[1:] == list(READS)
    for column, (name, sub) in enumerate(_subparsers(parser).items(), 1):
        actions = {opt: a for a in sub._actions for opt in a.option_strings}
        listed = {row[0].strip("`") for row in rows if row[column] != "—"}
        assert listed == actions.keys() - {"-h", "--help"}, name
        for row in rows:
            flag, cell = row[0].strip("`"), row[column]
            if cell.startswith("`"):
                action = actions[flag]
                convert = action.type or str
                assert convert(cell.strip("`")) == sub.get_default(action.dest), (name, flag)
            elif cell == "off":
                assert sub.get_default(actions[flag].dest) is False, (name, flag)


def test_each_command_has_exactly_its_flags():
    # 39 settable values in all: the flags of the settings a command reads,
    # --config, --set and stability's --explicit-pi
    options = {name: {opt for a in sub._actions for opt in a.option_strings} - {"-h", "--help"}
               for name, sub in _subparsers(_build_parser()).items()}
    assert options == {
        name: {"--" + key.replace("_", "-") for key in keys} | {"--config", "--set"}
        | ({"--explicit-pi"} if name == "stability" else set())
        for name, keys in READS.items()}
    assert sum(map(len, options.values())) == 39


# the (command, flag, value) of every flag a command no longer takes, and two
# abbreviations that argparse would otherwise take for a longer flag
NOT_READ = [
    ("simulate", "--steps", "5"), ("simulate", "--dt-list", "0.1"),
    ("convergence", "--dt", "0.05"), ("convergence", "--steps", "5"),
    ("stability", "--nonlinear", None), ("stability", "--dt", "0.5"),
    ("stability", "--max-periods", "2"), ("stability", "--eps-per", "1e-3"),
    ("verify-oracle", "--dt", "0.05"), ("verify-oracle", "--sub", "2"),
    ("verify-oracle", "--max-periods", "2"), ("verify-oracle", "--eps-per", "1e-3"),
    ("verify-oracle", "--steps", "5"), ("verify-oracle", "--dt-list", "0.1"),
]
ABBREVIATED = [("simulate", "--max", "0"), ("stability", "--ste", "3")]


@pytest.mark.parametrize("command, flag, value", NOT_READ + ABBREVIATED)
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, command, flag, value):
    # as a flag and as a config key, which stands for that flag
    key = flag[2:].replace("-", "_")
    path = tmp_path / "run.cfg"
    path.write_text(f"nx = 8\nny = 2\n{key} = {value or 'true'}\n")
    base = [command, "--nx", "8", "--ny", "2", "--out", str(tmp_path / "run")]
    for argv, named in ((base + [flag] + ([value] if value else []),
                         f"unrecognized arguments: {flag}"),
                        (base + ["--config", str(path)],
                         f"line 3: this command does not read {flag}" if key in RUN_SETTINGS
                         else f"line 3: unknown key {key!r}")):
        assert _exit(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["convergence", "stability"])
@pytest.mark.parametrize("dt_list", ["", "0.1,,1"])
def test_every_dt_list_entry_must_parse(tmp_path, capsys, command, dt_list):
    path = tmp_path / "run.cfg"
    path.write_text(f"dt_list = {dt_list}\n")
    for extra in (["--dt-list", dt_list], ["--config", str(path)]):
        assert _exit([command, "--nx", "8", "--ny", "2", *extra]) == 2
        captured = capsys.readouterr()
        assert "argument --dt-list: invalid" in captured.err and captured.out == ""


def test_verify_oracle_all_examples(capsys):
    for ex in ("1", "2", "3"):
        rc = main(["verify-oracle", "--example", ex, *COARSE])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 4


def test_verify_oracle_nonlinear(capsys):
    rc = main(["verify-oracle", "--example", "1", "--nonlinear", *COARSE])
    assert rc == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_oracle_corrupted_override(capsys):
    rc = main(["verify-oracle", "--example", "1", *COARSE, "--set", "R11_1=-10"])
    out = capsys.readouterr().out
    assert rc != 0
    assert "FAIL" in out


@pytest.mark.parametrize("override", ["omega=0", "H=0", "rho=-1", "mu=-1", "L=0"])
def test_verify_oracle_bad_physical_parameter_exits_2(capsys, override):
    # a settings mistake, not an oracle failure
    assert main(["verify-oracle", "--example", "1", *COARSE, "--set", override]) == 2
    captured = capsys.readouterr()
    key, _, value = override.partition("=")
    assert f"{key}={float(value)}" in captured.err and captured.out == ""


def test_simulate_writes_series_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["simulate", "--example", "1", "--dt", "0.05", *COARSE,
               "--max-periods", "8", "--out", str(out)])
    assert rc == 0
    series = (out / "series.csv").read_text().splitlines()
    header = series[0].split(",")
    assert header[:4] == ["t", "P_1_1_1", "Q_1_1_1", "pi_1_1_1"]
    assert header[-5:] == ["E_omega", "E_ups", "D_omega", "D_rc", "U_ups"]
    assert len(series) >= 2
    summary = (out / "summary.txt").read_text()
    assert "converged = true" in summary
    assert "final_gap" in summary


def test_simulate_deterministic_output(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["simulate", "--example", "1", "--dt", "0.1", *COARSE,
              "--max-periods", "3", "--eps-per", "1e-3", "--out", str(out)])
        outs.append((out / "series.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_max_periods_zero(tmp_path):
    out = tmp_path / "init"
    rc = main(["simulate", "--example", "1", "--dt", "0.05", *COARSE,
               "--max-periods", "0", "--out", str(out)])
    assert rc == 0
    summary = (out / "summary.txt").read_text()
    assert "periods = 0" in summary
    assert "E_omega" in summary
    assert len((out / "series.csv").read_text().splitlines()) == 2  # header + t=0


def test_simulate_example3_generator_driven(tmp_path):
    # no external side and no body force needed: the circuit generators
    # drive the whole run
    out = tmp_path / "ex3"
    rc = main(["simulate", "--example", "3", "--dt", "0.05", *COARSE,
               "--max-periods", "8", "--out", str(out)])
    assert rc == 0
    header = (out / "series.csv").read_text().splitlines()[0]
    assert "P_1_1_1" in header and "P_1_1_2" in header


def test_stability_single_step_trivially_passes(capsys):
    rc = main(["stability", "--example", "1", "--dt-list", "1.0",
               "--steps", "1", *COARSE])
    assert rc == 0
    assert "overall = PASS" in capsys.readouterr().out


def test_simulate_nonconvergence_exit_code(tmp_path):
    rc = main(["simulate", "--example", "1", "--dt", "0.05", *COARSE,
               "--max-periods", "1", "--eps-per", "1e-30",
               "--out", str(tmp_path / "x")])
    assert rc == 1


def test_convergence_single_dt_no_slope(tmp_path, capsys):
    rc = main(["convergence", "--example", "1", "--dt-list", "0.05", *COARSE,
               "--max-periods", "8", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[slopes]" not in out
    assert (tmp_path / "convergence.txt").exists()


@pytest.mark.parametrize("value", ["-1", "0"])
def test_simulate_rejects_a_non_positive_alpha1(tmp_path, capsys, value):
    # the resistance law of nonlinear benchmark 1 takes ln alpha1
    rc = main(["simulate", "--nonlinear", "--dt", "0.05", *COARSE, "--max-periods", "1",
               "--out", str(tmp_path), "--set", f"alpha1={value}"])
    assert rc == 2
    assert f"alpha1={float(value)}" in capsys.readouterr().err


def test_convergence_duplicate_dts_rejected(capsys):
    rc = main(["convergence", "--example", "1", "--dt-list", "0.01,0.01", *COARSE])
    assert rc == 2


def test_convergence_two_dts_slope(capsys):
    rc = main(["convergence", "--example", "1", "--dt-list", "0.05,0.025",
               *COARSE, "--max-periods", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[slopes]" in out
    v_line = [l for l in out.splitlines() if l.startswith("v =")][0]
    assert 0.5 <= float(v_line.split("=")[1]) <= 1.5
    # benchmark 1's peak errors follow, one line per row in the rows' order
    block = out.split("[peak errors, interface 1_1_1]\n")[1].splitlines()
    assert block[0] == "dt,P,Q"
    assert [line.split(",")[0] for line in block[1:]] == ["0.05", "0.025"]


@pytest.mark.parametrize("example", ["1", "2", "3"])
def test_stability_pass_and_explicit_control(capsys, example):
    # the splitting scheme passes at every dt; the negative control, which
    # lags the node pressures in stage 1, breaks the energy chain at every dt
    # and, from dt = 1 on, by more than the initial energy
    argv = ["stability", "--example", example, "--dt-list", "0.1,1,10",
            "--steps", "30", *COARSE]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall = PASS" in out

    rc = main([*argv, "--explicit-pi"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "overall = FAIL" in out
    rows = [line.split(",") for line in out.splitlines() if line[:1].isdigit()]
    assert [row[0] for row in rows] == ["0.1", "1.0", "10.0"]
    for dt, e0, _, chain, _, verdict in rows:
        assert verdict == "FAIL" and float(chain) > 1e-12 * float(e0)
        assert float(dt) < 1 or float(chain) > float(e0)


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("example = 1\nnx = 16\nny = 4\n")
    rc = main(["verify-oracle", "--config", str(path), "--example", "3"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    # a key verify-oracle does not read stops it, not only the flag
    path.write_text("example = 1\ndt = 0.05\nnx = 16\nny = 4\n")
    assert _exit(["verify-oracle", "--config", str(path), "--example", "3"]) == 2
    captured = capsys.readouterr()
    assert "line 2: this command does not read --dt" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("value", ["nan", "inf", "abc"])
def test_non_finite_override_rejected(tmp_path, capsys, value):
    for cmd in ("stability", "verify-oracle"):
        rc = _exit([cmd, "--example", "1", *COARSE, "--set", f"R_b={value}"])
        assert rc == 2
        assert "R_b" in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    path.write_text(f"nx = 16\nny = 4\nset.R_b = {value}\n")
    rc = _exit(["stability", "--config", str(path)])
    assert rc == 2
    assert "R_b" in capsys.readouterr().err


@pytest.mark.parametrize("example, override", [
    ("1", "R_b=0"), ("1", "Cbar_a=-0.01"), ("2", "L_a=0"), ("3", "R_c=-70")])
def test_non_positive_circuit_element_rejected(tmp_path, capsys, example, override):
    name = override.split("=")[0]
    common = ["--example", example, "--nx", "8", "--ny", "2", "--set", override]
    for argv in (["stability", "--steps", "3", "--dt-list", "1"],
                 ["simulate", "--dt", "0.5", "--max-periods", "1",
                  "--out", str(tmp_path / "run")],
                 ["convergence", "--dt-list", "0.5", "--max-periods", "1"]):
        rc = main([*argv, *common])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and name in captured.err
    rc = main(["verify-oracle", *common])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("FAIL parameter_validity") and name in out


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--dt", "0"], "dt"),
    (["simulate", "--dt", "nan"], "dt"),
    (["simulate", "--dt", "-0.05"], "dt"),
    (["convergence", "--dt-list", "0.05,0"], "dt"),
    (["convergence", "--dt-list", "0.5,inf"], "dt"),
    (["stability", "--dt-list", "nan"], "dt"),
    (["simulate", "--max-periods", "-1"], "max_periods"),
    (["convergence", "--dt-list", "0.5", "--max-periods", "-1"], "max_periods"),
    (["convergence", "--dt-list", "0.5", "--max-periods", "0"], "max_periods"),
    (["simulate", "--eps-per", "-1"], "eps_per"),
    (["convergence", "--dt-list", "0.5", "--eps-per", "nan"], "eps_per"),
    (["simulate", "--sub", "-1"], "sub"),
    (["stability", "--sub", "-1", "--dt-list", "1"], "sub"),
    (["stability", "--steps", "0", "--dt-list", "1"], "steps"),
    (["stability", "--steps", "-3", "--dt-list", "1"], "steps"),
    (["convergence", "--dt-list", "0.01,0.003"], "dt"),
    # only benchmark 1 has a nonlinear variant, in every command that reads it
    (["verify-oracle", "--example", "2", "--nonlinear"], "example"),
    (["verify-oracle", "--example", "3", "--nonlinear"], "example"),
    (["simulate", "--example", "2", "--nonlinear"], "example"),
    (["convergence", "--example", "3", "--nonlinear", "--dt-list", "0.5"], "example"),
])
def test_invalid_run_settings_rejected(tmp_path, capsys, argv, name):
    rc = main([*argv, "--nx", "8", "--ny", "2", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and f" {name}=" in err


@pytest.mark.parametrize("dt_list", ["0.1,nan", "1,-1", "0.1,1,inf"])
def test_stability_checks_every_dt_before_any_run(monkeypatch, capsys, dt_list):
    from stokes0d import cli
    calls = []
    monkeypatch.setattr(cli, "stability_run", lambda *a, **k: calls.append(a))
    rc = main(["stability", "--nx", "8", "--ny", "2", "--steps", "5",
               "--dt-list", dt_list])
    captured = capsys.readouterr()
    assert rc == 2 and calls == []
    assert captured.err.startswith("error: dt must be positive and finite")
    assert captured.out == ""
