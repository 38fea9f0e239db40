"""The package's public names: every ``__all__`` entry exists, and the
package root re-exports only names its modules declare public, and the
public options are counted."""

import ast
import dataclasses
import importlib
import inspect
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


def option_defaults():
    """Whether each parameter of a public function and each field of a
    public dataclass, over every module's ``__all__``, has a default."""
    missing = dataclasses.MISSING
    defaults = []
    for name in MODULES:
        module = importlib.import_module(f"fluxbus.{name}")
        for obj in (getattr(module, n) for n in getattr(module, "__all__", ())):
            if dataclasses.is_dataclass(obj):
                defaults += [(f.default, f.default_factory) != (missing, missing) for f in dataclasses.fields(obj)]
            elif inspect.isfunction(obj):
                defaults += [p.default is not p.empty for p in inspect.signature(obj).parameters.values()]
    return defaults


def test_public_option_count():
    # Every public parameter and field is a knob a caller can turn.  A change
    # that adds or removes one changes these numbers on purpose.
    defaults = option_defaults()
    assert (len(defaults), sum(defaults)) == (139, 36)
