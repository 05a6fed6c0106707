"""The import surface: every exported name exists, and every name the
package exports at top level is part of its module's public API."""

import importlib
import pkgutil
import sys
import types

import pytest

import sievesim

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(sievesim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"sievesim.{name}")
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


def test_top_level_exports_are_listed_in_their_module():
    exports = {name: value for name, value in vars(sievesim).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exports
    unlisted = [name for name, value in exports.items()
                if name not in getattr(sys.modules[value.__module__], "__all__", ())]
    assert unlisted == []
