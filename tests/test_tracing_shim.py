"""The benchmark's traced-run shim still installs against the package.

`perfbench/tracing.py` wraps the polytope builders and the sampler's two
stages by class and method name, and reads the entropy solve's record; a
rename in the package, or a simulator that stopped calling those methods,
would silently zero its assembly counts, sampler spans and entropy
counters. The shim is imported by path and run in a fresh interpreter, so
its rebinding of package names cannot leak into the rest of the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SNAPSHOT_PATH

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
from cdo_compat import (load_snapshot, range_at_N, simulate_npv,
                        spread_delta, verify_strong_at_N, verify_weak)
snap = load_snapshot(sys.argv[2])
spread_delta(snap, verify_weak(snap).law)
range_at_N(snap, [0, 1, 2], 3, N=50)
simulate_npv(verify_strong_at_N(snap, 50).law, snap, 1000, seed=1)
print(json.dumps(tracer.metrics()))
"""


def test_tracer_counts_both_polytope_assemblies(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench" / "tracing.py"),
         SNAPSHOT_PATH],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    metrics = json.loads(res.stdout)
    assert metrics["weak_compat.assemble_calls"] >= 1
    assert metrics["strong_compat.assemble_calls"] >= 1
    assert metrics["strong_compat.generator_s"] > 0.0
    assert metrics["strong_compat.distortion_s"] > 0.0
    assert metrics["opt_backend.entropy_calls"] == 1
    assert metrics["opt_backend.entropy_kkt_max"] < 1e-8
