#!/usr/bin/env python3
"""Runs one workload of the dfmres benchmark and prints its result.

    python3 perfbench/run.py --workload flow-podem --seed 12345 \
        --seconds 10 --trace 0

Run from the repository root (any directory works; paths are resolved
from this file). The script

1. builds perfbench_driver, and the library from src/ with it, into
   .bench_build/perfbench (RelWithDebInfo, the library's own flags);
2. runs the workload in its own process, which checks every output
   before it reports a number (see driver.cpp);
3. runs the set-up alone in fresh processes before and after the
   workload, for a steady setup_s median;
4. prints the run conditions and the exact counts on two lines, then,
   as the last line, one JSON object with the keys correct, attempted,
   failed and metrics. --trace 0 reports the end-to-end metrics,
   --trace 1 the per-layer metrics of a separate traced pass.

--seed is the ATPG seed (the library default is 12345). Exit codes: 0
success, 1 a failed check or a failed run, 2 a usage or build error.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
WORKLOADS = ("flow-podem", "resyn-probe", "resyn-uin")
SETUP_SAMPLES = 12  # set-up-only processes before and after the workload

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "untested_pct": "%",
}


def layer_unit(name):
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


PER_LAYER = [
    "atpg.phase0_s", "atpg.phase1_s", "atpg.phase2_s", "atpg.phase3_s",
    "atpg.load_s", "atpg.run_s", "atpg.backtracks", "atpg.detect_mask_calls",
    "atpg.prop_events", "atpg.frame_bytes", "atpg.patterns", "atpg.detected",
    "atpg.undetectable", "atpg.aborted", "atpg.aborted_pct",
    "core.resyn.probe_s", "core.resyn.probe_frame_bytes",
    "core.resyn.probe_full_loads", "core.resyn.probe_overlay_loads",
    "core.resyn.probe_load_s", "core.resyn.u_in_s", "core.resyn.u_in_probes",
    "core.resyn.build_s", "core.resyn.candidates_built",
    "core.resyn.full_probes", "core.resyn.sig_hits", "core.resyn.accepted",
    "core.resyn.accept_ratio", "core.resyn.signoff_s", "core.rung_s",
    "core.spec_rung_s", "synth.map_s", "place.global_s", "route.route_s",
    "sta.analyze_s", "dfm.extract_s", "cluster.cluster_s",
    "library.build_s", "switchlevel.udfm_build_s", "circuits.build_s",
    "trace.flow.probe_self_s", "trace.flow.u_in_probe_self_s",
    "trace.atpg.phase2.podem_self_s", "trace.atpg.sweep_self_s",
    "trace.synth.map_self_s", "bench.unattributed_s", "bench.traced_wall_s",
    "bench.trace_overhead_s",
]


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds perfbench_driver; serialized by a lock file."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench_driver"]]
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"),
                             "-B", str(BUILD_DIR),
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850, check=False)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}", 2)


def run_driver(args, timeout):
    done = subprocess.run([str(DRIVER)] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"driver {' '.join(args)} exited with {done.returncode}", 1)
    return json.loads(lines[-1])


def git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or Path(out[0]) != ROOT:
        return "unknown"  # not a git checkout of this tree
    return out[1]


def source_digest():
    """sha256 over src/ paths and contents: identifies the code measured
    when no git metadata is at hand."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        fail("--seed must be a non-negative 64-bit integer", 2)

    build()
    workload = ["--workload", args.workload]

    def setup_samples():
        if args.trace:  # setup_s is reported by untraced runs only
            return []
        return [run_driver(workload + ["--setup-only"], 10)["setup_s"]
                for _ in range(SETUP_SAMPLES)]

    setups = setup_samples()
    record = run_driver(workload + ["--seed", str(args.seed),
                                    "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], 150)
    setups += setup_samples() + [record["setup"]["setup_s"]]

    conditions = dict(record["conditions"], workload=args.workload,
                      pass_wall_s=record["pass_wall_s"], cpu_model=cpu_model(),
                      git_commit=git_commit(), src_digest=source_digest(),
                      dfmres_simd=os.environ.get("DFMRES_SIMD", ""))
    print("conditions " + json.dumps(conditions, sort_keys=True))
    print("counts " + json.dumps(record["counts"], sort_keys=True))
    for error in record["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)

    correct = record["failed"] == 0 and not record["errors"]
    metrics = {}
    if correct and args.trace == 0:
        values = dict(record["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    elif correct:
        metrics = {k: {"value": record["layers"][k], "unit": layer_unit(k)}
                   for k in PER_LAYER}
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
