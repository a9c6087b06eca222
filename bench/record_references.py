"""Record the reference outputs the benchmark checks against.

    python3 bench/record_references.py [workload ...]

Runs one episode of each workload on every input slot and rewrites
``bench/references.json`` (the entries of the named workloads only; all of
them by default). Re-record only when the package's numerics are meant to
change, and say so in the change that does it: the references are what keeps
a speed-up from quietly changing results.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv) -> int:
    for var in run.BLAS_ENV:
        run.os.environ[var] = str(run.BLAS_THREADS)
    sys.path[:0] = [str(run.ROOT / "src"), str(run.BENCH_DIR)]
    import harness
    import workloads

    names = argv or list(workloads.WORKLOADS)
    path = run.BENCH_DIR / "references.json"
    refs = json.loads(path.read_text("utf-8")) if path.is_file() else {}
    for name in names:
        refs[name] = {}
        for slot in range(workloads.REFERENCE_SLOTS):
            w = workloads.make(name, workloads.PAPER, slot, run.OUT_DIR / "work")
            out = harness.measure(w, 0.0, harness.NO_TRACE, None, setup_repeats=1, setup_min_s=0.0, min_episodes=1)
            if out.failed:
                print("\n".join(out.problems), file=sys.stderr)
                return 1
            refs[name][str(slot)] = out.observed
            print(f"{name} slot {slot}: {len(out.observed)} units", flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
