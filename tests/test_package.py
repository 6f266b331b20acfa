import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import lpolydiv


def test_every_public_name_resolves_from_its_module():
    assert lpolydiv.__all__ == sorted(set(lpolydiv.__all__))
    for name in lpolydiv.__all__:
        obj = getattr(lpolydiv, name)
        assert obj.__module__.startswith("lpolydiv.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from lpolydiv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == lpolydiv.__all__
    assert all(namespace[name] is getattr(lpolydiv, name) for name in namespace)
    assert set(lpolydiv.__all__) <= set(dir(lpolydiv))
    assert {"curves", "gf", "sympoly", "__version__"} <= set(dir(lpolydiv))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lpolydiv.no_such_name
    with pytest.raises(ImportError):
        from lpolydiv import no_such_name  # noqa: F401


def test_lazy_submodules_are_the_imported_modules():
    for name in ("gf", "_kernels", "curves", "cache", "lseries", "sympoly"):
        module = importlib.import_module(f"lpolydiv.{name}")
        assert getattr(lpolydiv, name) is module is sys.modules[f"lpolydiv.{name}"]
    assert lpolydiv.curves.CurveSpec is lpolydiv.CurveSpec


def test_readme_example_prints_what_it_says():
    # the README's one library example, run in a fresh interpreter as a reader would run it
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    assert readme.count("```python\n") == 1
    example = readme.split("```python\n")[1].split("```\n")[0]
    script = example + 'import sys\nassert "numpy" not in sys.modules\nassert "fractions" not in sys.modules\n'
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, second, third = proc.stdout.splitlines()
    assert "divides=True, quotient=(1, 0, 0, 4, 0, 0, 8)" in first
    assert second == "16t^2+8t+1 False"
    assert third == "True"


def _sibling_imports() -> dict[str, set[str]]:
    """Module -> the package modules its source imports, in function bodies as well."""
    package = Path(lpolydiv.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        graph[name] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "lpolydiv"):
                base = (node.module or "").removeprefix("lpolydiv").lstrip(".")
                if base:
                    graph[name].add(base.split(".")[0])
                else:  # from . import curves
                    graph[name].update(alias.name for alias in node.names if alias.name in modules)
            elif isinstance(node, ast.Import):
                graph[name].update(
                    alias.name.split(".")[1] for alias in node.names if alias.name.startswith("lpolydiv.")
                )
    return graph


def test_sibling_imports_form_an_acyclic_graph():
    graph = _sibling_imports()
    assert graph["gf"] == set() and "gf" in graph["curves"] and "curves" in graph["lseries"]
    done, path = set(), []

    def visit(name):
        assert name not in path, f"import cycle: {' -> '.join(path[path.index(name):] + [name])}"
        if name not in done:
            path.append(name)
            for child in sorted(graph[name]):
                visit(child)
            path.pop()
            done.add(name)

    for name in sorted(graph):
        visit(name)


def test_repr_of_curve_records_runs_no_lseries():
    # a fresh interpreter, where no earlier test has run lseries
    script = """
import sys, types
from lpolydiv import CurveSpec, PointCounts
spec = CurveSpec("ck", 1)
print(repr(spec))
print(repr(PointCounts(spec, (10**5000, 5), ("fresh", "cached"))))
print(type(sys.modules["lpolydiv.lseries"]) is types.ModuleType)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    spec, counts, lseries_ran = proc.stdout.splitlines()
    assert spec == "CurveSpec(family='ck', k=1, p=2)"
    assert counts == f"PointCounts(spec={spec}, counts=(1{'0' * 5000}, 5), provenance=('fresh', 'cached'))"
    assert lseries_ran == "False"
