import subprocess
import sys
from pathlib import Path

import mhdsheet


def import_leaves_out(module):
    """Import mhdsheet in a fresh interpreter and check that `module` was
    not loaded."""
    src = str(Path(mhdsheet.__file__).resolve().parent.parent)
    check = f"import sys, mhdsheet; assert {module!r} not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", check],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_scipy():
    # scipy is a test extra only; importing it used to cost most of the
    # package's import time
    import_leaves_out("scipy")


def test_import_does_not_load_numpy():
    # only `pade` and `solve_general` import numpy, when called; at
    # module level it was ~90% of the package's import time
    import_leaves_out("numpy")
