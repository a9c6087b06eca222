"""What importing the package loads: numpy, the one runtime import its docstring lists, and no scipy.

``scipy.fft`` and ``scipy.special`` each load scipy's array-API layer, about
320 modules, and ``scipy.signal`` with ``scipy.stats`` several hundred more;
no module of the package may import scipy at import time. The imports run in a
fresh interpreter, since this test process has loaded other modules already.
scipy is only a test dependency (``pyproject.toml``), so no module may import
it inside a function either: the source is checked at every nesting level.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bpcse

SCRIPT = """
import importlib, json, pkgutil, sys
import bpcse
names = [f"bpcse.{m.name}" for m in pkgutil.iter_modules(bpcse.__path__)]
for name in names:
    importlib.import_module(name)
print(json.dumps({"imported": names, "loaded": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def loaded():
    """Everything ``sys.modules`` holds once every module of the package is imported."""
    src = str(Path(bpcse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = json.loads(subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env,
                                    check=True).stdout)
    assert {"bpcse.dsp", "bpcse.corpus", "bpcse.diffcore", "bpcse.asr_model"} <= set(out["imported"])
    return out["loaded"]


def test_no_scipy(loaded):
    found = [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
    assert found == [], (
        f"importing bpcse loads {len(found)} scipy modules: {found[:10]}; numpy is the only runtime import, "
        "so write what scipy would give in numpy and keep scipy as its oracle in the tests"
    )


def scipy_imports(tree):
    """The line of each ``import scipy...`` or ``from scipy... import`` anywhere in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            yield node.lineno


def test_scipy_imports_are_found_at_any_depth():
    source = "import numpy\ndef f():\n    if True:\n        from scipy.signal import resample_poly\nimport scipy as sp\n"
    assert sorted(scipy_imports(ast.parse(source))) == [4, 5]


def test_no_module_imports_scipy_at_any_depth():
    found = [
        f"{path.name}:{line}"
        for path in sorted(Path(bpcse.__file__).resolve().parent.rglob("*.py"))
        for line in scipy_imports(ast.parse(path.read_text("utf-8")))
    ]
    assert found == [], f"scipy imported in {found}; scipy is a test dependency only, so write it in numpy"
