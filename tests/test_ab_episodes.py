"""Smoke test of ``tools/ab_episodes.py``: an A/A run at the benchmark's TINY scale."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["enhance", "train_joint"])
def test_same_tree_on_both_sides_gives_equal_outputs(workload):
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_episodes.py"), src, src,
         "--workload", workload, "--scale", "tiny", "--pairs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    package = ROOT / "src" / "bpcse"
    assert done.stdout.splitlines()[:2] == [f"base: {package} as bpcse_base", f"change: {package} as bpcse_change"]
    lines = done.stdout.splitlines()[2:]
    assert [line.split(":")[0] for line in lines[:2]] == ["pair 1", "pair 2"]
    assert "(base first)" in lines[0] and "(change first)" in lines[1]
    for line, side in zip(lines[2:4], ["base", "change"]):
        assert re.fullmatch(rf"{side}: episode CPU time median \d+\.\d{{3}} s, IQR \d+\.\d{{3}} s", line)
    ratio = r"\d+\.\d{4}"
    assert re.fullmatch(rf"{workload}: change/base CPU time ratio median {ratio} \(quartiles {ratio}, {ratio}\) "
                        r"over 2 pairs; change faster in [0-2]/2", lines[4])
    # two imports of one tree run the same arithmetic
    assert lines[5] == "largest output difference, relative: 0"


def test_one_pair_refused():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_episodes.py"), "src", "src", "--workload", "enhance", "--pairs", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "--pairs is 1; it must be at least 2, to give a spread" in done.stderr
