"""The package's public names: every ``__all__`` entry exists, and the
package root re-exports only names its modules declare public, and the
public options are counted.  Its modules define one exception class,
import nothing they do not use and read no private name of another."""

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
    assert (len(defaults), sum(defaults)) == (137, 33)


def test_one_exception_class():
    # Bad input raises ValueError and a failed solve NumericalError; the CLI
    # maps those two types to its exit codes, so no module defines another.
    defined = sorted(
        f"{name}.{attr}"
        for name in MODULES
        for attr, obj in vars(importlib.import_module(f"fluxbus.{name}")).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == f"fluxbus.{name}"
    )
    assert defined == ["squid.NumericalError"]
    assert issubclass(fluxbus.NumericalError, RuntimeError) and not issubclass(fluxbus.NumericalError, ValueError)


def unused_imports(source: str) -> list:
    """Names bound by a module-level import that the module never reads
    (``from __future__`` is exempt)."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    # MODULES leaves out __init__, whose imports are re-exports.
    path = Path(fluxbus.__file__).with_name(f"{name}.py")
    assert unused_imports(path.read_text()) == []


def private_reads(source: str) -> list:
    """(line, name) of each ``_``-prefixed name of another fluxbus module that
    ``source`` imports, or reads as an attribute of a fluxbus module it
    imports (dunder names such as ``__all__`` are exempt)."""

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias for alias in node.names if alias.name.startswith("fluxbus")]
            modules |= {alias.asname or alias.name.partition(".")[0] for alias in names}
        elif isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("fluxbus")):
            if node.module in (None, "fluxbus"):  # binds modules
                modules |= {alias.asname or alias.name for alias in node.names}
            reads += [(node.lineno, alias.name) for alias in node.names if private(alias.name)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                reads.append((node.lineno, node.attr))
    return sorted(reads)


def test_no_module_reads_another_modules_private_names():
    # A rule kept private to its module is stated there once; a module that
    # reads it from outside re-derives that rule.
    package = Path(fluxbus.__file__).parent
    reads = [
        f"{path.name}:{line}: {name}"
        for path in sorted(package.glob("*.py"))
        for line, name in private_reads(path.read_text())
    ]
    assert reads == []
