import importlib
import pkgutil

import fepkit


def test_every_export_resolves():
    modules = [fepkit] + [
        importlib.import_module(f"fepkit.{info.name}") for info in pkgutil.iter_modules(fepkit.__path__)
    ]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
