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


def test_no_size_parameter_has_a_default():
    # samplers take an array shape and return an array: a single draw is a
    # size-1 call, so no sampler keeps a scalar path behind size=None
    defaulted = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            spec = node.args
            positional = spec.posonlyargs + spec.args
            params = positional[len(positional) - len(spec.defaults):] + [
                arg for arg, default in zip(spec.kwonlyargs, spec.kw_defaults) if default]
            defaulted += [f"{path.name}:{node.lineno}" for arg in params if arg.arg == "size"]
    assert defaulted == []


def test_no_function_rebinds_its_rng():
    # samplers take the numpy Generator they are given and advance it: none
    # converts or replaces its rng argument
    rebound = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            spec = node.args
            if "rng" not in [arg.arg for arg in spec.posonlyargs + spec.args + spec.kwonlyargs]:
                continue
            rebound += [f"{path.name}:{target.lineno}" for target in ast.walk(node)
                        if isinstance(target, ast.Name) and target.id == "rng"
                        and isinstance(target.ctx, ast.Store)]
    assert rebound == []


def _sievesim_imports(path: Path):
    """(enclosing top-level function or None, imported ``sievesim`` module)
    for every import statement of the source file ``path``."""
    found = []
    for top in ast.parse(path.read_text()).body:
        scope = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                dotted = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["sievesim" if node.level else "", node.module]))
                dotted = [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            found += [(scope, d.split(".")[1]) for d in dotted if d.startswith("sievesim.")]
    return found


def _criterion_function(tree, number: int) -> str:
    """The name of the function registered as criterion ``number``."""
    return next(node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                for d in node.decorator_list
                if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_criterion"
                and d.args[0].value == number)


def test_runner_and_checks_import_neither_front_end():
    # the chunk runner and the shared checks sit below both cli and acceptance
    for name in ("runner", "checks"):
        imported = {module for _, module in _sievesim_imports(PACKAGE / f"{name}.py")}
        assert imported.isdisjoint({"cli", "acceptance"}), name


def test_cli_and_acceptance_import_each_other_only_where_needed():
    # cli loads the suite only to run it, and the suite loads cli only for
    # criterion 15, which runs the command end to end
    tree = ast.parse((PACKAGE / "acceptance.py").read_text())
    determinism = _criterion_function(tree, 15)
    assert [scope for scope, module in _sievesim_imports(PACKAGE / "cli.py")
            if module == "acceptance"] == ["cmd_verify"]
    assert [scope for scope, module in _sievesim_imports(PACKAGE / "acceptance.py")
            if module == "cli"] == [determinism]
    reads = {(top.name if isinstance(top, ast.FunctionDef) else None, node.attr)
             for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "cli"}
    assert reads == {(determinism, "main")}
