"""Every public name resolves: the package's re-exports and each module's __all__."""

import importlib
import pkgutil


def test_public_names_resolve():
    package = importlib.import_module("slicesim")  # runs every re-export in __init__
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"slicesim.{info.name}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], info.name
