#!/usr/bin/env python3
"""Summarize a dfmres run or campaign report.

For a dfmres-run-report-v2 (or older v1) document (--report-out /
BENCH_*_report.json) prints the run header, initial vs final
Table-II-style stats, ATPG and resynthesis counters, and a compact
convergence table. For a dfmres-campaign-report-v1 document
(dfmres campaign --report-out) prints the campaign totals, a one-line
ledger per job, and the embedded per-job run reports. With several
reports, prints one block per file. Exits non-zero on a file that is
not a valid document of either schema, so CI can use it as a schema
gate.

With --list-schemas, prints every versioned document name the tooling
understands (one per line) and exits; scripts/check.sh diffs this list
against the C++ registry in src/core/schemas.hpp so the two sides of
the language boundary cannot drift.

Usage: scripts/summarize_report.py report.json [more.json ...]
       scripts/summarize_report.py --list-schemas
"""

import json
import sys

# Mirror of src/core/schemas.hpp kAll[] — checked by scripts/check.sh.
KNOWN_SCHEMAS = [
    "dfmres-campaign-manifest-v1",
    "dfmres-campaign-report-v1",
    "dfmres-campaign-shard-v1",
    "dfmres-run-report-v1",
    "dfmres-run-report-v2",
    "dfmres-lease-v1",
    "dfmres-telemetry-v1",
    "dfmres-status-v1",
    "dfmres-request-v1",
    "dfmres-response-v1",
    "dfmres-bench-probe-overlay-v1",
    "dfmres-bench-serve-v1",
]


def fmt_state(s):
    # v2 carries detected/aborted and defines coverage as detected/F; a v1
    # report has neither count, and its coverage credited aborts.
    aborted = s.get("aborted", "-")
    return (
        f"U={s['undetectable']:<6} A={aborted:<5} Smax={s['smax']:<6} "
        f"%Smax={s['smax_pct']:6.2f}  cov={100.0 * s['coverage']:6.2f}%  "
        f"delay={s['delay']:.3f}  power={s['power']:.1f}  T={s['tests']}"
    )


def summarize(path):
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    schema = report.get("schema")
    if schema == "dfmres-campaign-report-v1":
        summarize_campaign(path, report)
        return
    if schema == "dfmres-campaign-shard-v1":
        summarize_shard(path, report)
        return
    if schema == "dfmres-status-v1":
        summarize_status(path, report)
        return
    if schema == "dfmres-telemetry-v1":
        summarize_telemetry(path, report)
        return
    if schema == "dfmres-bench-probe-overlay-v1":
        summarize_probe_overlay(path, report)
        return
    if schema == "dfmres-bench-serve-v1":
        summarize_serve_saturation(path, report)
        return
    if schema not in ("dfmres-run-report-v1", "dfmres-run-report-v2"):
        raise ValueError(f"{path}: unexpected schema {schema!r}")

    print(f"== {path}")
    summarize_run(report)


def summarize_status(path, status):
    """dfmres-status-v1: one line of `dfmres status --json` output."""
    print(f"== {path}")
    report_flag = "  [report written]" if status["report_written"] else ""
    print(
        f"   campaign: {status['done']}/{status['jobs_total']} done,"
        f" {status['running']} running, {status['pending']} pending"
        f"{report_flag}"
    )
    if status["eta_s"] > 0.0:
        print(f"   eta: ~{status['eta_s']:.0f}s")
    for job in status["jobs"]:
        detail = f" ({job['error']})" if job.get("error") else ""
        owner = f" @{job['owner']}" if job.get("owner") else ""
        print(
            f"   job {job['name']}: {job['state']}{owner},"
            f" attempt {job['attempt']}{detail}"
        )
    for worker in status["workers"]:
        job = worker["job"] or "idle"
        rate = (
            f", {worker['faults_per_s']:.0f} faults/s"
            if worker["faults_per_s"] >= 0.0
            else ""
        )
        print(
            f"   worker {worker['owner']} (pid {worker['pid']},"
            f" seq {worker['seq']}): {job},"
            f" {worker['faults_classified']} faults classified{rate}"
        )


def summarize_telemetry(path, snap):
    """dfmres-telemetry-v1: one worker's crash-durable snapshot."""
    print(f"== {path}")
    progress = snap["progress"]
    job = snap["job"] or "idle"
    print(
        f"   snapshot {snap['owner']}.{snap['seq']} (pid {snap['pid']}):"
        f" {job}, phase {snap['phase']}, {snap['jobs_done']} job(s) done"
    )
    print(
        f"   progress: {progress['analyses']} analyses,"
        f" {progress['faults_classified']} faults classified,"
        f" {progress['probes_committed']} probes committed,"
        f" {len(snap['trace'])} trace span(s) shipped"
    )


def summarize_probe_overlay(path, report):
    """BENCH_probe_overlay_compare.json: CoW probe-overlay economics."""
    print(f"== {path}")
    print(
        f"   probe overlays on {report['circuit']}:"
        f" bit-identical={'yes' if report['identical'] else 'NO'}"
    )
    local = report["local"]
    for mode in ("full", "overlay"):
        m = local[mode]
        print(
            f"   local {mode:<7} {m['bytes_per_probe']:12.0f} bytes/probe"
            f"  ({m['full_loads']} full / {m['overlay_loads']} overlay"
            f" loads over {local['probes']} probes)"
        )
    print(
        f"   local-edit bytes/probe ratio (full/overlay):"
        f" {report['bytes_per_probe_ratio']:.1f}x"
    )
    for mode in ("full", "overlay"):
        m = report[mode]
        print(
            f"   search {mode:<7} {m['bytes_per_probe']:12.0f} bytes/probe"
            f"  ({m['probes']} probes, {m['wall_seconds']:.2f}s,"
            f" U={m['final_undetectable']} Smax={m['final_smax']})"
        )
    print(
        f"   search bytes/probe ratio (full/overlay):"
        f" {report['search_bytes_per_probe_ratio']:.1f}x"
    )
    if not report["identical"]:
        raise ValueError(f"{path}: overlay and full runs disagree")


def summarize_serve_saturation(path, report):
    """BENCH_serve_saturation.json: serve-daemon latency vs offered load."""
    print(f"== {path}")
    print(
        f"   serve saturation: {report['workers']} worker(s),"
        f" admission bound {report['max_inflight_jobs']} in-flight job(s),"
        f" rejections_seen={'yes' if report['rejections_seen'] else 'NO'}"
    )
    for level in report["levels"]:
        print(
            f"   offered {level['offered']:3d}: {level['accepted']:3d} accepted"
            f" {level['rejected']:3d} rejected"
            f"  p50 {level['p50_ms']:7.1f}ms  p95 {level['p95_ms']:7.1f}ms"
            f"  p99 {level['p99_ms']:7.1f}ms"
            f"  {level['jobs_per_s']:.1f} jobs/s"
        )
    if not report["rejections_seen"]:
        raise ValueError(f"{path}: saturated level saw no admission rejections")


def job_flags(job):
    """Status flags shared by campaign rows and worker shards."""
    flags = []
    if job.get("poisoned"):
        flags.append(f"POISONED after {job.get('attempts', '?')} attempt(s)")
    elif job.get("skipped"):
        flags.append("skipped")
    elif not job["ok"]:
        flags.append(f"FAILED ({job['status']})")
    if job["deadline_expired"]:
        flags.append("deadline expired")
    return flags


def summarize_shard(path, shard):
    """dfmres-campaign-shard-v1: one worker-published job result."""
    print(f"== {path}")
    flags = job_flags(shard)
    provenance = (
        f" by {shard['worker']}" if shard.get("worker") else ""
    )
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    print(
        f"   shard {shard['name']}: {shard['mode']} on {shard['design']},"
        f" attempt {shard.get('attempts', 1)}{provenance},"
        f" {shard['inner_threads']} lane(s),"
        f" {shard['runtime_seconds']:.2f}s{suffix}"
    )
    counters = shard.get("metrics", {}).get("counters", {})
    patterns = counters.get("atpg.patterns_simulated")
    if patterns is not None:
        print(f"   shard metrics: {patterns} ATPG patterns simulated")
    if "report" in shard:
        summarize_run(shard["report"], indent="   ")


def summarize_campaign(path, report):
    print(f"== {path}")
    total = report["jobs_total"]
    print(
        f"   campaign: {total} job(s), {report['completed']} completed,"
        f" {report['expired']} expired, {report['failed']} failed,"
        f" {report['skipped']} skipped"
    )
    print(
        f"   schedule: {report['jobs_in_flight']} job(s) in flight x"
        f" {report['inner_threads']} lane(s)"
        f" of {report['total_threads']} total,"
        f" wall {report['runtime_seconds']:.2f}s"
    )
    jobs = report["jobs"]
    if len(jobs) != total:
        raise ValueError(f"{path}: jobs_total {total} != {len(jobs)} entries")
    for job in jobs:
        flags = job_flags(job)
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        provenance = ""
        if job.get("worker"):
            provenance = (
                f" (worker {job['worker']}, {job.get('attempts', 1)}"
                f" attempt(s))"
            )
        print(
            f"   job {job['name']}: {job['mode']} on {job['design']},"
            f" {job['inner_threads']} lane(s),"
            f" {job['runtime_seconds']:.2f}s{provenance}{suffix}"
        )
    counters = report.get("metrics", {}).get("counters", {})
    patterns = counters.get("atpg.patterns_simulated")
    if patterns is not None:
        print(f"   merged metrics: {patterns} ATPG patterns simulated")
    for job in jobs:
        if "report" in job:
            print(f"   -- job {job['name']}")
            summarize_run(job["report"], indent="   ")


def summarize_run(report, indent=""):
    def print_line(text):
        print(indent + text)

    header = f"{report['command']} on {report['circuit']}"
    if report.get("sim_kernel"):
        header += f", {report['sim_kernel']} kernel (W={report.get('sim_words', 1)})"
    if report.get("threads"):
        header += f", {report['threads']} threads"
    if report.get("fingerprint"):
        header += f", fingerprint {report['fingerprint']}"
    print_line(f"   {header}")
    wall = report.get("runtime_seconds", 0.0)
    cpu = report.get("cpu_seconds", 0.0)
    partial = "  [PARTIAL RUN]" if report.get("partial") else ""
    print_line(f"   wall {wall:.2f}s, cpu {cpu:.2f}s{partial}")

    if "initial" in report:
        print_line(f"   initial: {fmt_state(report['initial'])}")
    if "final" in report:
        print_line(f"   final:   {fmt_state(report['final'])}")

    atpg = report.get("atpg")
    if atpg:
        print_line(
            f"   atpg: {atpg['patterns_simulated']} patterns, "
            f"{atpg['detect_mask_calls']} detect_mask calls, "
            f"{atpg['podem_backtracks']} backtracks, "
            f"phases {atpg['phase0_seconds']:.2f}/"
            f"{atpg['phase1_seconds']:.2f}/{atpg['phase2_seconds']:.2f}/"
            f"{atpg['phase3_seconds']:.2f}s"
        )

    resyn = report.get("resynthesis")
    if resyn:
        c = resyn["counters"]
        p = resyn["phase_seconds"]
        print_line(
            f"   resyn: q_used={resyn['q_used']}%"
            f" accepted={'yes' if resyn['any_accepted'] else 'no'}"
            f" deadline_expired={'yes' if resyn['deadline_expired'] else 'no'}"
            f"  {c['candidates_built']} built, {c['u_in_probes']} u_in probes,"
            f" {c['full_probes']} full probes"
        )
        print_line(
            f"   resyn phases: build {p['build']:.2f}s, u_in {p['u_in']:.2f}s,"
            f" probe {p['probe']:.2f}s, signoff {p['signoff']:.2f}s"
        )
        trace = resyn.get("convergence", [])
        accepted = [r for r in trace if r["accepted"]]
        print_line(
            f"   convergence: {len(trace)} candidates recorded, "
            f"{len(accepted)} accepted"
        )
        if accepted:
            print_line(
                f"   {'sec':>8} {'q':>3} {'ph':>2} {'U':>6} {'Smax':>6}"
                f" {'%Smax':>7} {'via':>12} {'banned':>10}"
            )
            for r in accepted:
                via = "backtracking" if r["via_backtracking"] else "direct"
                print_line(
                    f"   {r['seconds']:8.2f} {r['q']:2d}% {r['phase']:2d}"
                    f" {r['undetectable']:6d} {r['smax']:6d}"
                    f" {r['smax_pct']:6.2f}% {via:>12} {r['ban_through']:>10}"
                )


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        return 2
    if argv[1] == "--list-schemas":
        for schema in KNOWN_SCHEMAS:
            print(schema)
        return 0
    for path in argv[1:]:
        summarize(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
