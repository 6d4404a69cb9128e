#!/usr/bin/env python3
"""Self-test of the benchmark: exact counts repeat, traces reproduce.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload (default: all), runs perfbench/run.py twice at the
same seed, once untraced and once traced, and
fails unless

- both runs pass their output checks;
- the exact counts (F, detected, U, aborted, T, atpg.backtracks,
  core.resyn.candidates_built and the accepted-candidate sequence of
  every block) are identical, as they must be at a fixed thread count;
- the traced run reproduced the untraced verdicts (driver.cpp checks
  this inside the traced run: on flow-podem the traced pass is
  run_initial recomposed from the public stage calls);
- BENCHMARK.json names the metrics run.py prints, with the same units.

Takes about a minute per workload on a 4-core x86 host.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def run_once(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 3:
        return None, None
    counts = json.loads(lines[-2].split(" ", 1)[1])
    return counts, json.loads(lines[-1])


def check_benchmark_json():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected_layers = {n: run.layer_unit(n) for n in run.PER_LAYER}
    problems = []
    if e2e != run.END_TO_END:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if layers != expected_layers:
        problems.append("per_layer metrics differ from run.PER_LAYER")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads differ from run.WORKLOADS")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=12345)
    args = parser.parse_args()

    problems = check_benchmark_json()
    for workload in args.workload or run.WORKLOADS:
        plain_counts, plain = run_once(workload, args.seed, 0)
        traced_counts, traced = run_once(workload, args.seed, 1)
        if plain is None or traced is None:
            problems.append(f"{workload}: a run failed")
        elif not (plain["correct"] and traced["correct"]):
            problems.append(f"{workload}: an output check failed")
        elif plain_counts != traced_counts:
            problems.append(f"{workload}: exact counts differ between runs")
        else:
            print(f"{workload}: ok " + json.dumps(plain_counts, sort_keys=True))
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
