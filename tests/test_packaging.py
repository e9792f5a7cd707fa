import ast
import cProfile
import importlib
import importlib.util
import json
import pathlib
import pkgutil
import re
import sys

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: the same parser, as the tomli package
    import tomli as tomllib

import loopchain

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
TESTS = pathlib.Path(__file__).resolve().parent


def test_declared_scripts_resolve():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def _imported_by_tests():
    """Every module an import in tests/ names, and module.name for each name
    a from-import takes."""
    imported = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update("%s.%s" % (node.module, alias.name) for alias in node.names)
    return imported


def test_every_module_is_imported_by_a_test():
    modules = {"loopchain." + m.name for m in pkgutil.iter_modules(loopchain.__path__)}
    assert sorted(modules - _imported_by_tests()) == []


def test_the_test_extra_declares_what_the_tests_import():
    # pip install loopchain[test] must be enough to run tests/ on every
    # supported Python, tomli (imported on 3.10 only) included
    extra = tomllib.loads(PYPROJECT.read_text())["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.]+", req).group() for req in extra}
    top = {name.partition(".")[0] for name in _imported_by_tests()}
    # tomllib is stdlib from 3.11 on, but sys.stdlib_module_names of 3.10 does
    # not list it: there the import above falls back to the declared tomli
    stdlib = set(sys.stdlib_module_names) | {"tomllib"}
    assert sorted(top - stdlib - declared - {"loopchain"}) == []


def test_every_definition_is_referenced():
    # every top-level function and class and every non-dunder method of
    # loopchain is named somewhere in src/ or tests/, else it is dead code
    package = pathlib.Path(loopchain.__file__).parent
    defined, referenced = set(), set()
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(m.name for m in node.body if isinstance(m, ast.FunctionDef)
                               and not (m.name.startswith("__") and m.name.endswith("__")))
    for path in [*(ROOT / "src").rglob("*.py"), *TESTS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
    assert len(defined) > 200
    assert sorted(defined - referenced) == []


def test_every_import_is_used():
    # every name a module-level import of loopchain binds is read in that
    # module; __init__.py re-exports its imports, so there __all__ reads them
    package = pathlib.Path(loopchain.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).partition(".")[0]
                    for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read.update(loopchain.__all__)
        unused += ["%s: %s" % (path.name, name) for name in sorted(imported - read)]
    assert unused == []


def test_benchmark_layer_names_resolve():
    # the traced benchmark locates loopchain functions by name; an empty profile
    # still looks every one of them up, so a rename fails here
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    metrics = layers.layer_metrics(cProfile.Profile(), layers.LayerProbe())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the worker adds runtime.profiled_s, the profiled pass's own wall time
    assert sorted([*metrics, "runtime.profiled_s"]) == sorted(m["name"] for m in declared)


def test_benchmark_summed_counts_are_distinct_functions():
    # a layer metric that adds up several functions counts a call twice if
    # two of them are one inherited code object
    from loopchain import dg, snf
    for functions in [(dg.DGCoalgebra.comult, dg.DGCoalgebra.reduced_comult, dg.HopfAlgebra.comult),
                      (snf.modp_rank, snf._modp_kernel, snf._modp_column_space),
                      (snf.HomologyBasis.__init__, snf.HomologyBasis.coordinates)]:
        codes = [f.__code__ for f in functions]
        assert len(set(codes)) == len(codes), functions
