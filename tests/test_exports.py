"""The package's public names: every ``__all__`` entry exists, and the
package root re-exports only names its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fluxbus

MODULES = sorted(m.name for m in pkgutil.iter_modules(fluxbus.__path__))


def root_imports():
    """(module, name) for each public name ``fluxbus/__init__`` imports."""
    tree = ast.parse(Path(fluxbus.__file__).read_text())
    return [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not alias.name.startswith("_")
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"fluxbus.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_root_imports_are_declared_public():
    imports = root_imports()
    assert len(imports) > 40
    undeclared = [
        (module, name)
        for module, name in imports
        if name not in getattr(importlib.import_module(f"fluxbus.{module}"), "__all__", ())
    ]
    assert undeclared == []
