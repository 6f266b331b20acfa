import importlib
import sys

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
