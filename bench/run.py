"""Run one workload of the bpcse benchmark and print its metrics.

    python3 bench/run.py --workload {train_joint,enhance,prepare} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout of the repository. The package is imported
from ``src/``. With ``--trace 0`` the run prints every end-to-end metric of
BENCHMARK.json; with ``--trace 1`` it records spans around each layer call
and prints every per-layer metric instead. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The
full result, with run metadata (and the spans, for a traced run), is written
to ``bench/out/<workload>-seed<N>-trace<T>.json``.

Exit status: 0 after a completed run, whether or not its outputs were
correct: a run whose set-up or some input failed every time prints
``"correct": false`` and null for the metrics it could not measure. Exit
status 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# The workloads are bound by Python overhead around small GEMMs; one BLAS
# thread keeps runs steady on a shared machine and is never more than nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision():
    """HEAD of the repository the benchmark sits at the root of, else None."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(seed: int, slot: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text("utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "seed": seed,
        "input_slot": slot,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    spec_path = ROOT / "BENCHMARK.json"
    ref_path = BENCH_DIR / "references.json"
    if not (ROOT / "src" / "bpcse").is_dir() or not spec_path.is_file() or not ref_path.is_file():
        print(f"bench: no bpcse package, BENCHMARK.json or references under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text("utf-8"))
    slot = args.seed % workloads.REFERENCE_SLOTS
    references = json.loads(ref_path.read_text("utf-8"))
    meta = metadata(args.seed, slot)

    work_dir = OUT_DIR / "work"
    workload = workloads.make(args.workload, workloads.PAPER, slot, work_dir)
    tracer = harness.Tracer(bool(args.trace))
    outcome = harness.measure(workload, args.seconds, tracer, references[args.workload][str(slot)])
    summary = harness.summarize(outcome, workload.utts_per_episode, workload.audio_s_per_episode)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        # Every per-layer metric is measured in every traced run: the layers this
        # workload never calls are timed on one checked episode of each workload
        # that does call them. No span name is shared between workloads.
        for other in workloads.WORKLOADS:
            if other != args.workload:
                w = workloads.make(other, workloads.PAPER, slot, work_dir)
                extra = harness.measure(w, 0.0, tracer, references[other][str(slot)],
                                        setup_repeats=1, setup_min_s=0.0, min_episodes=1)
                outcome.attempted += extra.attempted
                outcome.failed += extra.failed
                outcome.problems += extra.problems
    summary["failed_frac"] = outcome.failed / outcome.attempted
    if work_dir.is_dir() and not any(work_dir.iterdir()):
        work_dir.rmdir()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = tracer.layer_metrics(wanted) if args.trace else {m["name"]: summary[m["name"]] for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }

    record = {"workload": args.workload, "trace": args.trace, "metadata": meta, "summary": summary,
              "setup_s_all": outcome.setup_s, "unit_s": outcome.unit_s, "slowness": outcome.slowness,
              "result": result,
              "problems": outcome.problems}
    if args.trace:
        record["trace"] = tracer.dump()
        untraced = OUT_DIR / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            base = json.loads(untraced.read_text("utf-8"))["summary"]
            record["tracing_overhead"] = {
                k: summary[k] - base[k] for k in ("utt_per_s", "latency_p50_ms")
                if None not in (summary[k], base.get(k))
            }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), "utf-8"
    )

    for p in outcome.problems[:20]:
        print(f"bench: CHECK FAILED: {p}", file=sys.stderr)
    print("# " + json.dumps(meta))
    tail = summary["latency_tail_ms"]
    print(f"# {args.workload}: {outcome.attempted} attempted, {outcome.failed} failed "
          f"(failed_frac {summary['failed_frac']:.3f}); "
          f"latency tail p{summary['latency_tail_percentile']} = "
          f"{'n/a' if tail is None else f'{tail:.1f} ms'} over {summary['latency_samples']} samples")
    if "tracing_overhead" in record:
        print("# tracing overhead (traced - untraced): " + json.dumps(record["tracing_overhead"]))
    for name, m in metrics.items():
        print(f"{name} {'null' if m['value'] is None else format(m['value'], '.6g')} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
