"""Import cost of the package."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone takes about a second to import; nothing in the
    # package needs it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, suffmdp; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
