"""The package's export list and its modules' imports."""

import ast
import pathlib

import cdo_compat


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
