"""Every library module's ``__all__`` lists exactly its public functions and classes,
and no module imports a name it never uses."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import chromabench

# The command-line front end's public surface is its command line, not names.
NO_ALL = {"cli"}


def test_every_module_all_exists_and_lists_each_public_function_and_class():
    problems = {}
    checked = []
    for info in pkgutil.iter_modules(chromabench.__path__):
        if info.name.startswith("_") or info.name in NO_ALL:
            continue
        module = importlib.import_module(f"chromabench.{info.name}")
        exported = getattr(module, "__all__", None)
        if exported is None:
            problems[info.name] = "no __all__"
            continue
        defined = {
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        stale = sorted(name for name in exported if not hasattr(module, name))
        unlisted = sorted(defined - set(exported))
        repeated = sorted({name for name in exported if exported.count(name) > 1})
        if stale or unlisted or repeated:
            problems[info.name] = {"stale": stale, "unlisted": unlisted, "repeated": repeated}
        checked.append(info.name)
    assert problems == {}
    assert len(checked) >= 7  # the library modules were found at all


def _imported_names(tree: ast.Module) -> set[str]:
    """The names a module's import statements bind, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, in ``__all__`` or in a string annotation."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= _used_names(ast.parse(part.value, mode="eval"))
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(Path(chromabench.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = sorted(_imported_names(tree) - _used_names(tree))
        if names:
            unused[path.name] = names
    assert unused == {}
