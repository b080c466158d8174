import importlib
import pkgutil

import qwalk


def test_every_exported_name_resolves():
    # a function deleted but left in an __all__ breaks `from qwalk import *`
    # and every caller that trusts the export list
    modules = [qwalk, *(importlib.import_module(f"qwalk.{info.name}")
                        for info in pkgutil.iter_modules(qwalk.__path__))]
    assert all(hasattr(module, "__all__") for module in modules)
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in module.__all__ if not hasattr(module, name)]
    assert not missing
