"""Import cost of the package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _scipy_modules_loaded_by(module: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy_stats():
    # nor any other scipy module: the package needs numpy alone, and
    # scipy cost every fresh process about 0.45 s and 29 MB
    assert _scipy_modules_loaded_by("suffmdp") == "[]"


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_loaded_by("suffmdp.cli") == "[]"
