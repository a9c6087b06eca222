"""What importing the package loads: numpy, the one runtime import its docstring lists, and no scipy.

``scipy.fft`` and ``scipy.special`` each load scipy's array-API layer, about
320 modules, and ``scipy.signal`` with ``scipy.stats`` several hundred more;
no module of the package may import scipy at import time. The imports run in a
fresh interpreter, since this test process has loaded other modules already.
"""

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


def test_no_scipy_signal_or_stats(loaded):
    heavy = [m for m in loaded if m.split(".")[:2] in (["scipy", "signal"], ["scipy", "stats"])]
    assert heavy == [], f"importing bpcse loads {len(heavy)} scipy.signal/scipy.stats modules: {heavy[:10]}"


def test_no_scipy(loaded):
    found = [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
    assert found == [], (
        f"importing bpcse loads {len(found)} scipy modules: {found[:10]}; numpy is the only runtime import, "
        "so import scipy inside the function that needs it"
    )
