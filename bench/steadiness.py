"""Run the benchmark several times per workload and report each metric's spread.

    python3 bench/steadiness.py --runs 10 [--first-seed 1]

Uses the command, run length and workloads of BENCHMARK.json, one seed per
run, and prints a markdown table: median, quartiles and the distance
between the quartiles as a share of the median (the figure each end-to-end
bound is compared with).  Every run's result line is appended to
.bench_out/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = ROOT / ".bench_out" / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    print(
        "| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | bound"
        " | failed/attempted |"
    )
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed} exited {proc.returncode}:", file=sys.stderr)
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            results.append(result)
        failed = {(r["failed"], r["attempted"]) for r in results}
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(
                f"| {workload} | {name} | {first['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} "
                f"| {spread:.4f} | {bounds.get(name)} | {sorted(failed)} |"
            )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
