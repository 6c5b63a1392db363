"""Every library module's ``__all__`` lists exactly its public functions and classes."""

import importlib
import inspect
import pkgutil

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
