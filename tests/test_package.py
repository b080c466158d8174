import importlib
import pkgutil
from pathlib import Path

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


def test_readme_library_sketch_runs(capsys):
    # the sketch imports what documented library use needs from the root
    # package; dropping one of those exports fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    masses = capsys.readouterr().out.split()
    assert len(masses) == 4 and all(0.0 < float(value) < 1.0 for value in masses)
