"""Worked examples: each demo runs standalone and exits cleanly."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# 02_price_ranges.py is left out: its N=200 range solves take about 47 s,
# more than the rest of a test file should cost
DEMOS = ["01_calibrate_and_verify.py", "03_hedging_deltas.py",
         "04_simulation.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    assert res.stdout
