"""Run every workload over many seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 10 --trace-seeds 2 --out sweep.json
    python3 perfbench/sweep.py --seeds 10 --against ../parent-checkout

Each run is `perfbench/run.py` in its own process, one at a time.  For each
end-to-end metric the summary gives the median, the quartiles and the spread
(quartile distance over the median) of its per-seed values.

`--against` names a second checkout, such as the parent commit's tree.  For
every seed the two checkouts run back to back, alternating which goes first,
so both see the same drift of the machine's speed.  The result lists each
side's median and quartiles and the pairs the change won.  A digest that
differs between the sides for the same workload and seed, a failed check,
or a median worse than the other side's by more than the metric's bound
makes the exit status 1.  Where the other side's own spread exceeds the
bound, the metric is reported as unresolved instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(root: str, workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-1]), lines[-2].split()[-1]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "values": values}


def machine() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(l.split(":", 1)[1].strip() for l in fh
                         if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


class Side:
    """The runs of one checkout on one workload."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.results: list[dict] = []
        self.digests: dict[str, str] = {}

    def run(self, workload: str, seed: int, seconds: int) -> None:
        result, digest = run_once(self.root, workload, seed, seconds, 0)
        self.results.append(result)
        self.digests[str(seed)] = digest
        print(os.path.basename(self.root) or self.root, workload, seed, digest[:16],
              result["failed"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()},
              flush=True)

    def entry(self, spec: dict) -> dict:
        return {
            "attempted": sum(r["attempted"] for r in self.results),
            "failed": sum(r["failed"] for r in self.results),
            "digests": self.digests,
            "end_to_end": {m["name"]: dict(summarise(
                [r["metrics"][m["name"]]["value"] for r in self.results]),
                unit=m["unit"], bound=m["bound"]) for m in spec["end_to_end"]},
        }


def compare(workload: str, change: dict, other: dict, spec: dict, bad: list) -> None:
    for seed, digest in change["digests"].items():
        if other["digests"].get(seed) != digest:
            bad.append(f"{workload} seed {seed}: digest differs")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        new, old = change["end_to_end"][name], other["end_to_end"][name]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (a - b) < 0 for a, b in zip(new["values"], old["values"]))
        worse = sign * (new["median"] - old["median"]) / old["median"]
        verdict = "ok"
        if worse > bound:
            verdict = "unresolved" if old["spread"] > bound else "WORSE"
            if verdict == "WORSE":
                bad.append(f"{workload} {name}: worse by {100 * worse:.1f} %")
        print(f"{workload:9} {name:14} other {old['median']:.6g} "
              f"[{old['q1']:.6g}, {old['q3']:.6g}]  this {new['median']:.6g} "
              f"[{new['q1']:.6g}, {new['q3']:.6g}]  this won {wins}/{len(new['values'])} "
              f"pairs  {verdict}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace-seeds", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    seeds = list(range(args.seeds))
    summary = {"machine": machine(), "run_seconds": seconds,
               "seeds": seeds, "workloads": {}}
    bad = []
    for workload in (w["name"] for w in spec["workloads"]):
        this = Side(ROOT)
        other = Side(os.path.abspath(args.against)) if args.against else None
        sides = [this] if other is None else [this, other]
        for seed in seeds:
            for side in sides if seed % 2 == 0 else sides[::-1]:
                side.run(workload, seed, seconds)
        entry = this.entry(spec)
        if args.trace_seeds:
            traced = [run_once(ROOT, workload, seed, seconds, 1)[0]
                      for seed in seeds[:args.trace_seeds]]
            entry["per_layer"] = {m["name"]: {
                "median": statistics.median(r["metrics"][m["name"]]["value"]
                                            for r in traced),
                "unit": m["unit"]} for m in spec["per_layer"]}
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            flag = "" if name == "setup_s" or stats["spread"] < stats["bound"] / 3 else "  WIDE"
            print(f"{workload:9} {name:14} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} bound {stats['bound']}{flag}")
        for side in sides:
            failed = sum(r["failed"] for r in side.results)
            if failed:
                bad.append(f"{side.root} {workload}: {failed} failed checks")
        if other is not None:
            entry["against"] = other.entry(spec)
            compare(workload, entry, entry["against"], spec, bad)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for line in bad:
        print("FAIL", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
