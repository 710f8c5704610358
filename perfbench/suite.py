"""Run every workload, print each metric with its unit, and write a BENCH file.

    python3 perfbench/suite.py                       # seed 0, one traced run each
    python3 perfbench/suite.py --seeds 1-10 --no-trace   # spread over ten seeds

Each run is its own process (``run.py``), started one after another.  With
several seeds the table gives the median of each end-to-end metric and its
spread: the distance between the first and third quartiles as a share of the
median, the figure the benchmark's bounds in BENCHMARK.json are sized for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, OUT, ROOT, git_revision
from workloads import WORKLOADS

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload process; returns the result file it wrote."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as handle:
        record = json.load(handle)
    record["correct"] = result["correct"]
    return record


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(BENCHMARK, encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="e.g. 0, 1,2,3 or 1-10")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    records = []
    ok = True
    for workload in WORKLOADS:
        runs = [run_one(workload, seed, seconds, 0) for seed in seeds]
        records += runs
        ok &= all(r["correct"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} run(s), {runs[0]['ops_per_pass']} operations per pass, "
              f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
        for name, unit in ((m["name"], m["unit"]) for m in bench["end_to_end"]):
            values = [r["end_to_end"][name] for r in runs]
            line = f"  {name:12s} {statistics.median(values):12.6g} {unit}"
            if len(values) > 1:
                line += f"   spread {spread(values):.3f} (bound {bounds[name]})"
            print(line)
        if not args.no_trace:
            traced = run_one(workload, seeds[0], seconds, 1)
            records.append(traced)
            ok &= traced["correct"]
            for m in bench["per_layer"]:
                value = traced["per_layer"][m["name"]]
                if value:
                    print(f"  {m['name']:28s} {value:12.6g} {m['unit']}")

    revision = git_revision(ROOT)
    out = os.path.join(OUT, f"BENCH_{revision[:12]}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"git_revision": revision, "seeds": seeds, "seconds": seconds,
                   "runs": records}, handle, indent=1)
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
