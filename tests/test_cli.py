import pytest

from stokes0d.cli import RunConfig, main, parse_config

COARSE = ["--nx", "16", "--ny", "4"]


def test_config_roundtrip():
    text = """# every key
example = 2
nonlinear = true
dt = 0.004
sub = 7
nx = 40
ny = 8
max_periods = 4
eps_per = 1e-7
steps = 33
dt_list = 0.01,0.002
out = results
set.R_b = 12.5
"""
    cfg = RunConfig(example=2, nonlinear=True, dt=0.004, sub=7, nx=40, ny=8,
                    max_periods=4, eps_per=1e-7, steps=33,
                    dt_list=(0.01, 0.002), overrides={"R_b": 12.5}, out="results")
    assert parse_config(text) == cfg


def test_config_parse_errors():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("bogus = 1\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("just some text\n")


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
    rc = main(["convergence", "--example", "1", "--dt", "0.05", *COARSE,
               "--max-periods", "8", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[slopes]" not in out
    assert (tmp_path / "convergence.txt").exists()


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


def test_stability_pass_and_explicit_control(capsys):
    rc = main(["stability", "--example", "1", "--dt-list", "0.1,1,10",
               "--steps", "30", *COARSE])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall = PASS" in out

    rc = main(["stability", "--example", "1", "--dt-list", "10",
               "--steps", "30", *COARSE, "--explicit-pi"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "overall = FAIL" in out


def test_config_file_with_flag_override(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("example = 1\ndt = 0.05\nnx = 16\nny = 4\nmax_periods = 8\n")
    rc = main(["verify-oracle", "--config", str(path), "--example", "3"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_override_rejected(tmp_path, capsys, value):
    for cmd in ("stability", "verify-oracle"):
        rc = main([cmd, "--example", "1", *COARSE, "--set", f"R_b={value}"])
        assert rc == 2
        assert "R_b" in capsys.readouterr().err
    path = tmp_path / "run.cfg"
    path.write_text(f"nx = 16\nny = 4\nset.R_b = {value}\n")
    rc = main(["stability", "--config", str(path)])
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
])
def test_invalid_run_settings_rejected(tmp_path, capsys, argv, name):
    rc = main([*argv, "--nx", "8", "--ny", "2", "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and f" {name}=" in err
