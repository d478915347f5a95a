import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mhdsheet


def import_leaves_out(module):
    """Import mhdsheet in a fresh interpreter and check that `module` was
    not loaded. -B: the environment below drops PYTHONDONTWRITEBYTECODE,
    and a checkout's cached bytecode would change its import time."""
    src = str(Path(mhdsheet.__file__).resolve().parent.parent)
    check = f"import sys, mhdsheet; assert {module!r} not in sys.modules"
    proc = subprocess.run([sys.executable, "-B", "-c", check],
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


@pytest.mark.parametrize("module", ["dataclasses", "inspect", "typing"])
def test_import_does_not_load_slow_standard_modules(module):
    # dataclasses loads inspect, which loads ast, dis and tokenize, and
    # each @dataclass compiled its methods: together over half the
    # package's import time. -S leaves out site-packages, where a .pth
    # file may import typing before the package does; -B writes no
    # bytecode
    src = str(Path(mhdsheet.__file__).resolve().parent.parent)
    check = ("import sys, mhdsheet, mhdsheet.cli; "
             f"assert {module!r} not in sys.modules")
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", check],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


def test_readme_sketch_runs():
    # the README's one python block runs as written, on the standard
    # library alone; -B writes no bytecode
    root = Path(__file__).resolve().parent.parent
    blocks = re.findall(r"```python\n(.*?)```",
                        (root / "README.md").read_text("utf-8"), re.S)
    assert len(blocks) == 1, f"{len(blocks)} python blocks in README.md"
    proc = subprocess.run([sys.executable, "-B", "-c", blocks[0]],
                          env={"PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_standard_library_test_modules_need_only_pytest_and_hypothesis():
    # CI runs these modules on Python 3.10, 3.12 and 3.13 with only pytest
    # and hypothesis installed
    allowed = set(sys.stdlib_module_names) | {
        "pytest", "hypothesis", "mhdsheet", "conftest"}
    tests = Path(__file__).resolve().parent
    for name in ("conftest.py", "test_cli.py", "test_hankel.py",
                 "test_ivp.py", "test_package.py"):
        for node in ast.parse((tests / name).read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for n in names:
                assert n.split(".")[0] in allowed, \
                    f"{name}:{node.lineno} imports {n}"
