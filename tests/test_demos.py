"""The demos run end to end, as a user runs them."""
import os
import subprocess
import sys
from pathlib import Path

from stokes0d import params_for

ROOT = Path(__file__).resolve().parents[1]


def test_interface_series_demo_writes_its_final_period(tmp_path):
    csv = tmp_path / "final_period.csv"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "interface_series.py"),
         "--nx", "8", "--ny", "2", "--dt", "0.05", "--csv", str(csv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = csv.read_text().splitlines()
    assert header == "t,P,P_exact,Q,Q_exact,pi"
    # N_tau + 1 states of a period of 2 at dt = 0.05
    assert len(rows) == 41
    R = params_for(1).R11_1
    for row in rows:
        _, P, _, Q, _, pi = map(float, row.split(","))
        assert P == pi + R * Q
