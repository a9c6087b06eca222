"""Smoke test of ``tools/ab_episodes.py``: an A/A run at the benchmark's TINY scale."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_a_a(*options):
    """``tools/ab_episodes.py`` with the repository's own ``src/`` on both sides, at TINY scale over two pairs."""
    src = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_episodes.py"), src, src, "--scale", "tiny", "--pairs", "2", *options],
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", ["enhance", "train_joint", "prepare"])
def test_same_tree_on_both_sides_gives_equal_outputs(workload):
    done = run_a_a("--workload", workload)
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
    assert re.fullmatch(r"largest output difference, relative: 0; other outputs differ in 0/[1-9]\d* units", lines[5])
    assert lines[6] == ("claim rule (at least 10 pairs, faster in 9 of 10, medians apart by more than the base's IQR): "
                        "not met")
    assert len(lines) == 7


def test_setup_phase_times_one_set_up_of_each_side_per_pair():
    done = run_a_a("--workload", "enhance", "--phase", "setup")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()[2:]
    seconds, ratio = r"\d+\.\d{3} s", r"\d+\.\d{4}"
    assert re.fullmatch(rf"pair 1: base {seconds}, change {seconds}, ratio {ratio} \(base first\)", lines[0])
    assert "(change first)" in lines[1]
    for line, side in zip(lines[2:4], ["base", "change"]):
        assert re.fullmatch(rf"{side}: setup CPU time median {seconds}, IQR {seconds}", line)
    assert re.fullmatch(rf"enhance: change/base CPU time ratio median {ratio} \(quartiles {ratio}, {ratio}\) "
                        r"over 2 pairs; change faster in [0-2]/2", lines[4])
    # each side's last set-up runs one episode: two imports of one tree build the same model
    assert re.fullmatch(r"largest output difference, relative: 0; other outputs differ in 0/[1-9]\d* units", lines[5])
    assert lines[6].endswith(": not met") and len(lines) == 7


def test_load_phase_times_one_load_of_each_side_per_pair(monkeypatch):
    done = run_a_a("--phase", "load")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()[2:]
    seconds, ratio = r"\d+\.\d{3} s", r"\d+\.\d{4}"
    assert re.fullmatch(rf"pair 1: base {seconds}, change {seconds}, ratio {ratio} \(base first\)", lines[0])
    assert "(change first)" in lines[1]
    for line, side in zip(lines[2:4], ["base", "change"]):
        assert re.fullmatch(rf"{side}: load CPU time median {seconds}, IQR {seconds}", line)
    assert re.fullmatch(rf"SeModel.load: change/base CPU time ratio median {ratio} \(quartiles {ratio}, {ratio}\) "
                        r"over 2 pairs; change faster in [0-2]/2", lines[4])
    # both sides load the base side's checkpoint of the benchmark's SE model, one unit per tensor
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # where workloads.py finds harness
    workloads = load_tool().load_workloads(ROOT / "src", "a_a")
    try:
        tensors = len(workloads.se_model.SeModel(workloads.TINY.se).params)
    finally:
        for name in [n for n in sys.modules if n.startswith(("bpcse_a_a", "workloads_a_a"))]:
            del sys.modules[name]
    assert lines[5] == f"largest output difference, relative: 0; other outputs differ in 0/{tensors} units"
    assert lines[6].endswith(": not met") and len(lines) == 7


@pytest.mark.parametrize("options", [["--phase", "load", "--workload", "enhance"], ["--phase", "setup"]],
                         ids=["load_with_workload", "setup_without"])
def test_workload_given_exactly_when_the_phase_needs_one(options):
    done = run_a_a(*options)
    assert done.returncode == 2 and "--phase load takes none" in done.stderr


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_episodes", ROOT / "tools" / "ab_episodes.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


@pytest.mark.parametrize(
    "change, met",
    [
        ([0.90] * 10, True),
        ([0.90] * 9 + [1.20], True),  # faster in 9 of 10
        ([0.90] * 8 + [1.20] * 2, False),  # 8 of 10
        ([0.90] * 9, False),  # 9 pairs
        ([0.98] * 10, False),  # faster in every pair, by less than the base's IQR
    ],
    ids=["all", "nine_of_ten", "eight_of_ten", "nine_pairs", "inside_iqr"],
)
def test_claim_rule(change, met):
    base = [1.0, 0.96, 1.04] * 3 + [1.0]  # median 1.0, IQR 0.06
    ab = load_tool()
    seconds = {"base": base[: len(change)], "change": change}
    assert ab.claim_met(seconds, [c / b for c, b in zip(change, base)]) is met


def test_other_outputs_compared_for_equality():
    ab = load_tool()
    unit = {"manifest_sha256": "a", "fbank_means": [1.0, 4.0], "feature_problems": []}
    assert ab.output_difference([unit, unit], [unit, unit]) == (0.0, 0)
    for edit in ({"manifest_sha256": "b"}, {"feature_problems": ["clean/utt0000.wav: fbank shape"]}):
        assert ab.output_difference([unit, unit], [unit, {**unit, **edit}]) == (0.0, 1)
    assert ab.output_difference([unit], [{**unit, "fbank_means": [1.0, 5.0]}]) == (0.25, 0)


def test_each_side_imports_its_modules_from_its_own_tree(tmp_path, monkeypatch):
    """A/A over the tree and a copy of it: every ``bpcse_<side>`` module, the six the benchmark imports among
    them, is loaded from that side's tree, and the workloads and the models share that side's ``diffcore``."""
    trees = {"base": ROOT / "src", "change": tmp_path / "src"}
    shutil.copytree(ROOT / "src" / "bpcse", trees["change"] / "bpcse", ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # where workloads.py finds harness
    ab = load_tool()
    try:
        for side, src in trees.items():
            workloads, package = ab.load_workloads(src, side), f"bpcse_{side}"
            modules = {n: m for n, m in sys.modules.items() if n == package or n.startswith(f"{package}.")}
            assert {f"{package}.{m}" for m in ("diffcore", "dsp", "bpc", "corpus", "asr_model", "se_model")} <= set(modules)
            assert {Path(m.__file__).parent for m in modules.values()} == {(src / "bpcse").resolve()}
            assert workloads.dc is modules[f"{package}.diffcore"] is workloads.se_model.dc is workloads.asr_model.dc
    finally:
        for name in [n for n in sys.modules if n.startswith(("bpcse_", "workloads_"))]:
            del sys.modules[name]


def test_one_pair_refused():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_episodes.py"), "src", "src", "--workload", "enhance", "--pairs", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and "--pairs is 1; it must be at least 2, to give a spread" in done.stderr
