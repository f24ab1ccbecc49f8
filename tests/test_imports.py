"""Import cost and export lists of the package."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(SRC / "suffmdp")]))


def _modules_loaded_by(module: str, *packages: str) -> str:
    """Sorted list of the modules of ``packages`` that a fresh ``import module`` loads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (f"import sys, {module}; packages = {packages!r}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in packages))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy_stats():
    # nor any other scipy module: the package needs numpy alone, and
    # scipy cost every fresh process about 0.45 s and 29 MB
    assert _modules_loaded_by("suffmdp", "scipy") == "[]"


def test_cli_import_loads_no_scipy():
    assert _modules_loaded_by("suffmdp.cli", "scipy") == "[]"


@pytest.mark.parametrize("module", ["suffmdp", "suffmdp.cli"])
def test_import_loads_no_worker_pool(module):
    # the experiment imports its process pool when it runs one, which costs
    # about 15 ms that every fresh process would otherwise pay
    assert _modules_loaded_by(module, "multiprocessing", "concurrent") == "[]"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a stale name would fail only at `from suffmdp.<module> import *`
    mod = importlib.import_module(f"suffmdp.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_exported_names():
    tree = ast.parse((SRC / "suffmdp" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    unexported = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
                  if alias.name not in importlib.import_module(f"suffmdp.{node.module}").__all__]
    assert unexported == []
