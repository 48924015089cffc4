"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload score --seeds 1-10 [--seconds 30] [--trace 0]

Runs bench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles, and the spread (Q3 - Q1) / median next to
the metric's bound from BENCHMARK.json. This is how the baseline in
bench/BASELINE.md was taken and how before/after numbers should be cited.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in contract["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        cmd = contract["command"] + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)

    print(f"\n{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None else f"{bound:6.2f}" + (" !" if spread > bound / 3 else "")
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
