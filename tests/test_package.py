import ast
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
    # the package needs only the standard library; numpy at module level
    # was once ~90% of its import time
    import_leaves_out("numpy")


def test_no_module_imports_numpy():
    # numpy is a test extra: no module, at any level, may import it
    for path in Path(mhdsheet.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(n.split(".")[0] != "numpy" for n in names), \
                f"{path.name}:{node.lineno} imports numpy"
