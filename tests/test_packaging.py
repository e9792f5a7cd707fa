import ast
import importlib
import pathlib
import pkgutil
import tomllib

import loopchain

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
TESTS = pathlib.Path(__file__).resolve().parent


def test_declared_scripts_resolve():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_every_module_is_imported_by_a_test():
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update("%s.%s" % (node.module, alias.name) for alias in node.names)
    modules = {"loopchain." + m.name for m in pkgutil.iter_modules(loopchain.__path__)}
    assert sorted(modules - imported) == []
