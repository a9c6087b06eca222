"""Measurement loop, tracing and summaries shared by every benchmark workload.

A workload is run as episodes of timed units (a training step, one enhanced
utterance, one prepared corpus). Each episode replays the workload's fixed
input set from the same starting state, so every unit's output can be checked
against a recorded reference and every run measures the same work.
"""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

# Every duration is CPU time of this process, which runs the measured loop on
# one thread with one BLAS thread. The shared host's cores still run up to twice
# as slow for seconds to minutes at a time, and CPU time slows with them.
# So each timed call is bracketed by a calibration loop that calls no package
# code, and its duration is divided by the host's slowness: the calibration
# time around the call over the calibration's reference time, its median on a
# quiet 2-vCPU Intel Xeon VM (Python 3.11). Scaled durations read as seconds on
# that machine at its quiet speed.
CLOCK = time.process_time
DICT_ROUNDS = 24
DICT_REFERENCE_S = 0.0045
FRACTION_ROUNDS = 18
FRACTION_REFERENCE_S = 0.0022
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10
_NULL_SPAN = contextlib.nullcontext()


def calibration_s(fractions: bool) -> float:
    """CLOCK seconds of a fixed pure-Python loop; it slows down as the host does.

    The loop builds dicts of floats. With ``fractions`` it also sums
    ``Fraction`` objects, for a workload whose time goes mostly into exact
    fraction arithmetic: the host slows that more than it slows the dict loop.
    """
    t0 = CLOCK()
    for _ in range(DICT_ROUNDS):
        d = {}
        for j in range(2000):
            d[j] = j * 0.5
        sum(d.values())
    for _ in range(FRACTION_ROUNDS if fractions else 0):
        total = Fraction(0)
        for j in range(1, 60):
            total += Fraction(j, 7 * j + 3)
    return CLOCK() - t0


def timed(call, fractions: bool = False):
    """``(result, scaled CLOCK seconds of call(), host slowness around it)``."""
    reference = DICT_REFERENCE_S + (FRACTION_REFERENCE_S if fractions else 0.0)
    before = calibration_s(fractions)
    t0 = CLOCK()
    result = call()
    elapsed = CLOCK() - t0
    slowness = (before + calibration_s(fractions)) / (2.0 * reference)
    return result, elapsed / slowness, slowness


class Tracer:
    """Spans and counts recorded around layer calls, kept in memory until the run ends.

    A span is ``[name, start, end, parent_index, unit_id, slowness]`` with
    ``CLOCK`` times in seconds; its durations are divided by the host slowness
    measured around its unit. When disabled, ``span`` hands back a shared
    no-op context.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: dict[str, list] = {}
        self.unit_id = None
        self._open: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else _NULL_SPAN

    @contextlib.contextmanager
    def _record(self, name):
        parent = self._open[-1] if self._open else None
        rec = [name, CLOCK(), None, parent, self.unit_id, 1.0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = CLOCK()
            self._open.pop()

    def scale_since(self, first: int, slowness: float) -> None:
        """Give the spans recorded from index ``first`` on the slowness of their unit."""
        for rec in self.spans[first:]:
            rec[5] = slowness

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts.setdefault(name, []).append(value)

    def self_times(self) -> list[float]:
        """Each span's scaled duration minus the scaled time its child spans cover."""
        duration = [(end - start) / slow for _, start, end, _, _, slow in self.spans]
        own = list(duration)
        for rec, d in zip(self.spans, duration):
            if rec[3] is not None:
                own[rec[3]] -= d
        return own

    def layer_metrics(self, per_layer: list) -> dict:
        """Median self time per call (ms) or median count, for each per-layer metric.

        The span of metric ``a.b_ms.c`` is named ``a.b.c``. A metric with no
        traced call reports 0.
        """
        own = self.self_times()
        by_name: dict[str, list] = {}
        for rec, t in zip(self.spans, own):
            by_name.setdefault(rec[0], []).append(t)
        out = {}
        for m in per_layer:
            if m["unit"] == "ms":
                vals = [1000.0 * t for t in by_name.get(m["name"].replace("_ms", ""), [])]
            else:
                vals = self.counts.get(m["name"], [])
            out[m["name"]] = float(statistics.median(vals)) if vals else 0.0
        return out

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        own = self.self_times()
        spans = [
            {"name": n, "start_s": s - t0, "end_s": e - t0, "self_s": o, "parent": p, "unit": u, "slowness": k}
            for (n, s, e, p, u, k), o in zip(self.spans, own)
        ]
        return {"spans": spans, "counts": self.counts}


NO_TRACE = Tracer(False)


@dataclass
class Outcome:
    setup_s: list = field(default_factory=list)  # scaled seconds of each set-up
    unit_s: list = field(default_factory=list)  # per episode position: scaled seconds of its runs
    slowness: list = field(default_factory=list)  # host slowness around every set-up and unit
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    observed: list = field(default_factory=list)  # per-unit observations of the first episode


def measure(workload, seconds: float, tracer: Tracer, reference, setup_repeats: int = 5,
            setup_min_s: float = 1.0, min_episodes: int = 2) -> Outcome:
    """Set the workload up repeatedly, then run episodes for ``seconds`` of wall time.

    Set-up runs at least ``setup_repeats`` times and until ``setup_min_s``
    scaled seconds have gone into it, so a cheap set-up still gets a steady
    median. A set-up that raises counts as one failed attempt and ends the run.

    Closed loop, one caller: the next unit starts when the previous returns.
    Units are started until the deadline has passed and at least
    ``min_episodes`` episodes are complete. Every unit's output is checked
    against ``reference`` (one entry per unit position); a unit that raises or
    fails a check counts as failed. With ``reference=None`` outputs are only
    observed, which is how references are recorded.
    """
    out = Outcome()
    state = None
    while len(out.setup_s) < setup_repeats or sum(out.setup_s) < setup_min_s:
        state = None
        gc.collect()
        try:
            state, dt, slowness = timed(workload.setup, workload.calibrate_fractions)
        except Exception:
            out.attempted += 1
            out.failed += 1
            out.problems.append(f"set-up raised:\n{traceback.format_exc()}")
            return out
        out.setup_s.append(dt)
        out.slowness.append(slowness)
    n_units = workload.units_per_episode
    out.unit_s = [[] for _ in range(n_units)]
    deadline = time.perf_counter() + seconds
    episode = 0
    while episode < min_episodes or time.perf_counter() < deadline:
        workload.start_episode(state)
        gc.collect()  # every episode starts from the same collector state
        for i in range(n_units):
            if episode >= min_episodes and time.perf_counter() >= deadline:
                break
            tracer.unit_id = f"{episode}.{i}"
            out.attempted += 1
            first_span = len(tracer.spans)

            def unit():
                with tracer.span(workload.unit_span):
                    return workload.run_unit(state, i, tracer)

            try:
                result, dt, slowness = timed(unit, workload.calibrate_fractions)
            except Exception:  # a failed unit is counted and reported, the run goes on
                out.failed += 1
                out.problems.append(f"unit {episode}.{i} raised:\n{traceback.format_exc()}")
                continue
            tracer.scale_since(first_span, slowness)
            out.unit_s[i].append(dt)
            out.slowness.append(slowness)
            obs = workload.observe(result)
            if episode == 0:
                out.observed.append(obs)
            if reference is not None:
                problems = workload.check(i, obs, reference[i])
                if problems:
                    out.failed += 1
                    out.problems.extend(f"unit {episode}.{i}: {p}" for p in problems)
        episode += 1
    tracer.unit_id = None
    return out


def tail_latency(samples: list) -> tuple:
    """(percentile, value) of the highest listed percentile with >= 10 samples beyond it.

    Nearest-rank percentiles; (None, None) when fewer than 20 samples exist.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = (None, None)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (q, ordered[rank - 1])
    return best


def summarize(out: Outcome, utts_per_episode: int, audio_s_per_episode) -> dict:
    """End-to-end figures from the median duration of each episode position.

    Every position replays the same input, so its median is free of the
    machine's passing slow-downs, and the figures always cover the whole
    input set whether or not the run ended inside an episode. When set-up or
    some position never completed, the figures that need it are None.
    """
    complete = bool(out.unit_s) and all(out.unit_s)
    medians = [statistics.median(d) for d in out.unit_s] if complete else None
    episode_s = sum(medians) if complete else None
    q, tail = tail_latency([d for ds in out.unit_s for d in ds])
    return {
        "utt_per_s": utts_per_episode / episode_s if complete else None,
        "audio_s_per_s": audio_s_per_episode / episode_s if complete and audio_s_per_episode else None,
        "latency_p50_ms": 1000.0 * statistics.median(medians) if complete else None,
        "latency_tail_ms": None if tail is None else 1000.0 * tail,
        "latency_tail_percentile": q,
        "latency_samples": sum(len(d) for d in out.unit_s),
        "setup_s": statistics.median(out.setup_s) if out.setup_s else None,
        "host_slowness": statistics.median(out.slowness) if out.slowness else None,
    }
