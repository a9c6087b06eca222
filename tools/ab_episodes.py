"""Same-process A/B of two ``bpcse`` source trees on the benchmark's enhance, train_joint or prepare episodes or set-ups.

    python3 tools/ab_episodes.py BASE_SRC CHANGE_SRC --workload enhance --pairs 12 [--phase setup]

BASE_SRC and CHANGE_SRC are ``src/`` directories, say of the parent commit
(``git archive``) and of the working tree. Each tree's ``bpcse`` is imported
under its own package name (``bpcse_base``, ``bpcse_change``), and
``bench/workloads.py`` is loaded once against each, so both sides run the
benchmark's own inputs and checks in one process. Every pair runs one
episode of each side, alternating which side goes first, and times it in
process CPU time after the episode's start (the weight reset of
train_joint). Two benchmark runs in separate processes drift apart with
the host by more than a few percent; two episodes run back to back in one
process drift together, so the paired ratio resolves a smaller change.
With ``--phase setup`` every pair instead times one ``setup()`` of each
side (the benchmark's ``setup_s``, in process CPU time), again alternating
which side goes first; each side's previous set-up state is dropped and
the garbage collector run before its next set-up, as the benchmark does.
The timed set-up of a side comes right after an untimed one of the same
side, as the benchmark's repeated set-ups follow each other: a set-up is
faster after the other side's, whose freed memory the allocator hands it
without page faults, so timing it there would measure the order. The two
sides still share one allocator, so a set-up that allocates much (the
train_joint one, with its weight copy and first Adam step) can reuse
memory here that the benchmark's own process has returned to the OS;
its ratio can then differ from the benchmark's. Each side's last set-up
state then runs one episode, whose outputs are compared.

The script prints where each side's package was loaded from and under
which name, each pair's times and ratio (change / base), then each side's
median episode (or set-up) time and its interquartile range (IQR), the
median ratio with its quartiles, the number of pairs in which the change
was faster, and the largest difference between the two sides' outputs:
per unit, the largest absolute difference of the numbers the workload
checks (step losses; the waveform's segment sums and energies; or
prepare's feature means), over the largest of their magnitudes, and in
how many units the other outputs differ (prepare's manifest and cluster
sha256s and its ``feature_problems``; the other workloads have none). Both
sides' prepare episodes write their corpora under one temporary directory,
removed at the end. Quartiles interpolate linearly between the sorted
values (numpy's default percentile), so a spread needs at least two pairs.
Its last line is the verdict of the rule a claimed gain must meet: at least
``CLAIM_PAIRS`` pairs, the change faster in at least 9 of every 10 of them,
and its median time below the base's by more than the base's IQR.
It reads "met" or "not met"; two pairs never meet it.

The repository's own ``src/`` stays first on ``sys.path``, because ``bpc``
reads its phone table through ``importlib.resources.files("bpcse")``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import numbers
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("enhance", "train_joint", "prepare")
PHASES = ("episode", "setup")
SIDES = ("base", "change")
CLAIM_PAIRS = 10


def load_workloads(src, side):
    """``bench/workloads.py`` bound to the ``bpcse`` package under ``src``, imported as ``bpcse_<side>``."""
    package = f"bpcse_{side}"
    pkg_dir = Path(src).resolve() / "bpcse"
    spec = importlib.util.spec_from_file_location(package, pkg_dir / "__init__.py",
                                                  submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[package] = pkg
    spec.loader.exec_module(pkg)
    saved = sys.modules.get("bpcse")
    sys.modules["bpcse"] = pkg  # so ``from bpcse import m`` in workloads.py imports ``bpcse_<side>.m``
    try:
        name = f"workloads_{side}"
        wspec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(wspec)
        sys.modules[name] = workloads
        wspec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["bpcse"]
        else:
            sys.modules["bpcse"] = saved
    return workloads


def run_episode(workload, state, no_trace):
    """One episode's CPU seconds and the observed output of each unit."""
    workload.start_episode(state)
    start = time.process_time()
    observed = [workload.observe(workload.run_unit(state, i, no_trace)) for i in range(workload.units_per_episode)]
    return time.process_time() - start, observed


def run_setup(workload):
    """The CPU seconds of one ``workload.setup()``, after a garbage collection, and the state it made."""
    gc.collect()
    start = time.process_time()
    state = workload.setup()
    return time.process_time() - start, state


def leaves(observed):
    """The leaves of one unit's observed output, in order."""
    if isinstance(observed, dict):
        return [x for v in observed.values() for x in leaves(v)]
    if isinstance(observed, (list, tuple)):
        return [x for v in observed for x in leaves(v)]
    return [observed]


def split(observed):
    """One unit's observed output as its real numbers, as floats, and its other leaves, each in order."""
    xs = leaves(observed)
    return ([float(x) for x in xs if isinstance(x, numbers.Real)],
            [x for x in xs if not isinstance(x, numbers.Real)])


def output_difference(base, change):
    """The largest, over units, of the numbers' largest absolute difference over their largest magnitude;
    and the number of units whose other leaves are not equal."""
    worst, unequal = 0.0, 0
    for b, c in zip(base, change):
        (b, b_rest), (c, c_rest) = split(b), split(c)
        scale = max(abs(x) for x in b) or 1.0
        worst = max(worst, max(abs(x - y) for x, y in zip(b, c)) / scale)
        unequal += b_rest != c_rest
    return worst, unequal


def quartiles(xs):
    """The first quartile, median and third quartile of ``xs`` (at least two numbers), linearly interpolated."""
    return statistics.quantiles(xs, n=4, method="inclusive")


def claim_met(seconds, ratios):
    """Whether the change's episode (or set-up) times meet the claim rule against the base's (see the module docstring)."""
    q1, base_median, q3 = quartiles(seconds["base"])
    faster = sum(r < 1.0 for r in ratios)
    return (len(ratios) >= CLAIM_PAIRS and 10 * faster >= 9 * len(ratios)
            and base_median - statistics.median(seconds["change"]) > q3 - q1)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base_src", help="the src/ directory of the base tree")
    p.add_argument("change_src", help="the src/ directory of the changed tree")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--phase", choices=PHASES, default="episode", help="what each pair times of each side")
    p.add_argument("--pairs", type=int, default=12)
    p.add_argument("--seed", type=int, default=1, help="picks the benchmark's input set, seed mod 16")
    p.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error(f"--pairs is {args.pairs}; it must be at least 2, to give a spread")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one BLAS thread, as the benchmark runs; read when numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import harness

    ratios, outputs, seconds = [], {}, {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab-episodes-") as work_dir:  # only prepare writes here
        sides = {}
        for side, src in zip(SIDES, (args.base_src, args.change_src)):
            workloads = load_workloads(src, side)
            print(f"{side}: {Path(workloads.se_model.__file__).parent} as {workloads.se_model.__package__}")
            scale = workloads.PAPER if args.scale == "paper" else workloads.TINY
            slot = args.seed % workloads.REFERENCE_SLOTS
            workload = workloads.make(args.workload, scale, slot, Path(work_dir) / side)
            sides[side] = (workload, workload.setup())
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                if args.phase == "setup":
                    workload = sides[side][0]
                    for _ in range(2):  # the second, timed set-up follows one of its own side
                        sides[side] = None  # freed before the next set-up
                        spent, state = run_setup(workload)
                        sides[side] = (workload, state)
                else:
                    spent, outputs[side] = run_episode(*sides[side], harness.NO_TRACE)
                seconds[side].append(spent)
            base_s, change_s = seconds["base"][-1], seconds["change"][-1]
            ratios.append(change_s / base_s)
            print(f"pair {pair + 1}: base {base_s:.3f} s, change {change_s:.3f} s, "
                  f"ratio {ratios[-1]:.4f} ({order[0]} first)")
        if args.phase == "setup":
            for side in SIDES:
                outputs[side] = run_episode(*sides[side], harness.NO_TRACE)[1]
    for side in SIDES:
        q1, median, q3 = quartiles(seconds[side])
        print(f"{side}: {args.phase} CPU time median {median:.3f} s, IQR {q3 - q1:.3f} s")
    q1, median, q3 = quartiles(ratios)
    faster = sum(r < 1.0 for r in ratios)
    print(f"{args.workload}: change/base CPU time ratio median {median:.4f} (quartiles {q1:.4f}, {q3:.4f}) "
          f"over {len(ratios)} pairs; change faster in {faster}/{len(ratios)}")
    worst, unequal = output_difference(outputs["base"], outputs["change"])
    print(f"largest output difference, relative: {worst:.3g}; "
          f"other outputs differ in {unequal}/{len(outputs['base'])} units")
    print(f"claim rule (at least {CLAIM_PAIRS} pairs, faster in 9 of 10, medians apart by more than the base's IQR): "
          f"{'met' if claim_met(seconds, ratios) else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
