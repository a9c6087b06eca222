"""Twenty-four seeded stage-two steps at the benchmark's ``TINY`` scale, against a recorded loss trajectory.

The benchmark checks each train_joint step loss at ``LOSS_RTOL`` (1e-9), but
its episodes are four steps from fresh weights, too few to tell a last-bit
change from a change of arithmetic. This test runs the benchmark's own
``TrainJoint`` at ``TINY``, input slot 3, for 24 steps with no weight reset
between them, and checks every loss at ``RTOL``. The bound lies between the
two kinds of change measured over 24 such steps: one ulp added to every SE
weight, as a last-bit BLAS difference would add, moved the losses by at most
2.8e-16 relative; Adam moments kept in float32 moved them by up to 2.0e-9. A
change that moves the trajectory on purpose records it again and says why.
If another BLAS build moves it by more than the bound, that is to be
reported, not hidden by a wider bound. ``bench/workloads.py`` is imported
from its file, as ``tools/ab_episodes.py`` imports it, and is not changed.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RTOL = 1e-12
TRAJECTORY = [  # the loss of each step, as run_unit returns it
    2.6886301908734778,
    3.314344463615778,
    2.669920803603693,
    3.283591239539441,
    2.6572531937338164,
    3.2611331782439894,
    2.6478379895691657,
    3.244201032945713,
    2.640718113629641,
    3.231187240055655,
    2.635297657178627,
    3.220701311283242,
    2.631141663837767,
    3.2122071036657456,
    2.627758036861209,
    3.2052187106729444,
    2.6249778906869787,
    3.1993616315210645,
    2.622594212503461,
    3.1943531367814195,
    2.6205100011962044,
    3.190063459781331,
    2.6186210013096956,
    3.1863279080718225,
]


def test_tiny_stage_two_steps_follow_the_recorded_trajectory(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # where workloads.py finds harness
    spec = importlib.util.spec_from_file_location("trajectory_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    train = workloads.make("train_joint", workloads.TINY, 3, None)
    state = train.setup()
    train.start_episode(state)
    for step, want in enumerate(TRAJECTORY):
        loss = train.run_unit(state, step % train.units_per_episode, workloads.NO_TRACE)
        assert abs(loss - want) <= RTOL * abs(want), f"step {step}: loss {loss!r}, recorded {want!r}"
