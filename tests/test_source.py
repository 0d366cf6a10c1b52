"""Static checks over the library's own source files."""
import ast
from pathlib import Path

import pytest

import pentagramma

MODULES = sorted(Path(pentagramma.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_oracle_runs_in_the_battery():
    # verify-all runs each second route the package ships; one that only the
    # tests call lives in tests/, beside them
    package = Path(pentagramma.__file__).parent
    oracles = ast.parse((package / "oracles.py").read_text(encoding="utf-8"))
    public = {node.name for node in oracles.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    battery = ast.parse((package / "verify.py").read_text(encoding="utf-8"))
    called = {node.func.attr for node in ast.walk(battery)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "oracles"}
    assert sorted(public - called) == []
