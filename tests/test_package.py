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
    script = example + 'import sys\nassert "numpy" not in sys.modules\n'
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, second, third = proc.stdout.splitlines()
    assert "divides=True, quotient=(1, 0, 0, 4, 0, 0, 8)" in first
    assert second == "16t^2+8t+1 False"
    assert third == "True"
