"""Import cost of the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


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
