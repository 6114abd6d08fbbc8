"""The public surface is written once: each module's ``__all__``, re-exported."""

import ast
import importlib
import inspect
import pkgutil

import pgduse

# every submodule but the command-line front end is part of the library
LIBRARY = [importlib.import_module(f"pgduse.{info.name}")
           for info in pkgutil.iter_modules(pgduse.__path__) if info.name != "cli"]


def public_names(module) -> list:
    """What ``from module import *`` binds: its ``__all__``, or every public global."""
    return getattr(module, "__all__", [name for name in vars(module) if not name.startswith("_")])


def test_the_package_exports_each_modules_names_and_the_modules():
    exported = {name for module in LIBRARY for name in public_names(module)}
    submodules = {module.__name__.rpartition(".")[2] for module in LIBRARY}
    assert len(pgduse.__all__) == len(set(pgduse.__all__))
    assert set(pgduse.__all__) == exported | submodules
    for module in LIBRARY:
        for name in public_names(module):
            assert getattr(pgduse, name) is getattr(module, name), (module.__name__, name)


def test_each_public_name_is_defined_in_its_module():
    for module in LIBRARY:
        tree = ast.parse(inspect.getsource(module))
        defined, imported = set(), set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        for name in public_names(module):
            assert name in defined and name not in imported, (module.__name__, name)


def test_no_helper_leaks_into_the_package():
    assert not [name for name in pgduse.__all__ if name.startswith("_")]
    for helper in ("np", "math"):
        assert helper not in pgduse.__all__ and not hasattr(pgduse, helper)
