"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 60 --trace 0

Run from a checkout of the repository: enermod is imported from its `src/`
directory.  With `--trace 0` the result holds the end-to-end metrics of
BENCHMARK.json, with `--trace 1` the per-layer metrics, and the spans are
written to `.perfbench/spans-<workload>-seed<seed>.jsonl`.  The line before
the result is the run's determinism digest.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "enermod", "__init__.py")):
        print(f"error: no enermod sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    sys.path[:0] = [SRC, ROOT]
    import numpy  # noqa: F401  -- loaded once, outside the timed set-ups

    from perfbench.harness import measure

    os.environ.pop("ENERMOD_BUILD_DATE", None)   # keeps model files stable
    work_dir = os.path.join(ROOT, ".perfbench")
    spans = None
    if args.trace:
        os.makedirs(work_dir, exist_ok=True)
        spans = os.path.join(work_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     os.path.join(work_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}"),
                     reimport=True, spans_path=spans)
    for child in multiprocessing.active_children():
        child.join()

    missing = [m["name"] for m in declared if m["name"] not in result.metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    for failure in result.checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} {result.digest}")
    print(json.dumps({
        "correct": not result.checks.failures,
        "attempted": result.checks.attempted,
        "failed": len(result.checks.failures),
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
