"""Every exported name resolves, and the package's top-level names are the
objects of the modules that export them."""

import importlib
import pkgutil
import types

import pytest

import hookweight

MODULES = sorted(m.name for m in pkgutil.iter_modules(hookweight.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"hookweight.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


def test_top_level_names_are_the_modules_objects():
    exporters: dict = {}
    for name in MODULES:
        module = importlib.import_module(f"hookweight.{name}")
        for attr in getattr(module, "__all__", ()):
            exporters.setdefault(attr, []).append(module)
    public = {attr: value for attr, value in vars(hookweight).items()
              if not attr.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public
    for attr, value in public.items():
        assert exporters.get(attr), f"hookweight.{attr} is in no __all__"
        for module in exporters[attr]:
            assert getattr(module, attr) is value, (attr, module.__name__)
