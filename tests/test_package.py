import subprocess
import sys
from pathlib import Path

import mhdsheet

IMPORT_CHECK = "import sys, mhdsheet; assert 'scipy' not in sys.modules"


def test_import_does_not_load_scipy():
    # scipy is a test extra only; importing it used to cost most of the
    # package's import time
    src = str(Path(mhdsheet.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHECK],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
