import importlib
import pkgutil

import pytest

import skofbsde

_MODULES = [skofbsde] + [importlib.import_module(f"skofbsde.{info.name}")
                         for info in pkgutil.iter_modules(skofbsde.__path__)]


@pytest.mark.parametrize("mod", _MODULES, ids=lambda mod: mod.__name__)
def test_exported_names_resolve(mod):
    # a removed function must leave no stale name in any __all__
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)
