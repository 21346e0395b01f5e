"""The package's export list and its modules' imports."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import cdo_compat

from conftest import SNAPSHOT_PATH

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves_once():
    names = cdo_compat.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(cdo_compat, n)] == []


def test_every_imported_name_is_used():
    # deleting code tends to leave its imports behind; a line that keeps an
    # import on purpose carries "# noqa"
    stale = []
    for path in sorted(pathlib.Path(cdo_compat.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if (getattr(node, "module", None) == "__future__"
                    or "# noqa" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    stale.append(f"{path.name}:{node.lineno} {name}")
    assert stale == []


FOOTPRINT = """
import json, sys
import cdo_compat.cli
from cdo_compat import load_snapshot, opt_backend, spread_delta, verify_weak
unused = ("scipy.optimize", "scipy.sparse.linalg", "scipy.linalg")
core = sys.modules.get("scipy.optimize._highspy._core")
record = {"at_start": [m for m in unused if m in sys.modules],
          "core_registered": core is not None and opt_backend.highs is core}
snap = load_snapshot(sys.argv[1])
spread_delta(snap, verify_weak(snap).law)
record["after_hedge"] = [m for m in unused if m in sys.modules]
import scipy.optimize
record["core_shared"] = sys.modules["scipy.optimize._highspy._core"] is core
record["minimize_shared"] = opt_backend.minimize is scipy.optimize.minimize
print(json.dumps(record))
"""


def test_commands_start_without_scipy_optimize():
    # every CLI command pays for what importing the package loads; only the
    # HiGHS binding is taken from scipy.optimize, and the sparse LU is loaded
    # by the first hedge. Run in a fresh interpreter, which nothing in this
    # suite has imported into yet.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", FOOTPRINT, SNAPSHOT_PATH],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    record = json.loads(res.stdout)
    assert record.pop("at_start") == []
    after_hedge = record.pop("after_hedge")
    assert "scipy.sparse.linalg" in after_hedge
    assert "scipy.optimize" not in after_hedge
    assert record == {"core_registered": True, "core_shared": True,
                      "minimize_shared": True}
