"""The import surface: every exported name exists, every name the package
exports at top level is part of its module's public API, and every public
name has a caller outside the tests."""

import ast
import importlib
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import sievesim

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(sievesim.__path__))
PACKAGE = Path(sievesim.__file__).parent
DEMOS = PACKAGE.parent.parent / "demos"


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


def test_every_listed_name_has_a_caller_outside_the_tests():
    # a use is a name or attribute read; imports, definitions and the
    # package's own re-exports in __init__.py do not count
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in sources + sorted(DEMOS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                used.add(node.id if isinstance(node, ast.Name) else node.attr)
    unused = [f"{name}.{export}" for name in MODULES
              for export in getattr(importlib.import_module(f"sievesim.{name}"), "__all__", ())
              if export not in used]
    assert unused == []
