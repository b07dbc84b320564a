#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Tune on seeds 1-10; re-check a claimed gain on the held-out seed 9001.

Builds perfbench (the library and dahlia-serve come from the repository's
own CMakeLists.txt) in Release mode under .bench_build/, then runs the
workload in a fresh child process. The child checks every answer against
perfbench/reference.json. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the workload runs once
untraced and once traced, and the metrics are the per-layer ones plus the
tracing overhead. Everything else goes to standard error. METRICS.md
defines every name.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("sweep-exhaustive", "sweep-pruned", "service-mixed", "cluster-cold")

END_TO_END = {
    "configs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "kernels.source_us": "us",
    "kernels.spec_us": "us",
    "lexer.lex_us": "us",
    "parser.parse_us": "us",
    "sema.check_us": "us",
    "sema.accept_ratio": "ratio",
    "driver.spec_us": "us",
    "hlsim.full_us": "us",
    "hlsim.full_calls": "count",
    "hlsim.coarse_us": "us",
    "hlsim.medium_us": "us",
    "hlsim.low_calls": "count",
    "cyclesim.sim_us": "us",
    "cyclesim.calls": "count",
    "cyclesim.walked_groups": "count",
    "dse.memo_hit_ratio": "ratio",
    "dse.full_estimate_ratio": "ratio",
    "dse.unattributed_fraction": "ratio",
    "service.server_ms_p50": "ms",
    "service.server_ms_p99": "ms",
    "service.json_us": "us",
    "service.cache_hit_ratio": "ratio",
    "service.parse_reuse_ratio": "ratio",
    "service.requests_per_epoch": "count",
    "tcp.wait_ms_p50": "ms",
    "tcp.wait_ms_p99": "ms",
    "tcp.coalesced_epoch_ratio": "ratio",
    "cluster.useful_dispatch_ratio": "ratio",
    "cluster.duplicate_runs": "count",
    "cluster.retries": "count",
    "cluster.worker_busy_fraction": "ratio",
    "trace.overhead_fraction": "ratio",
}
# One run must end within 180 s; the child gets what the build left.
RUN_BUDGET_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                cwd=ROOT).returncode
        except OSError as e:
            log(f"perfbench: cannot run {cmd[0]}: {e}")
            return False
        if rc != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


def run_context():
    """Where the numbers came from: commit (when there is one) and a
    digest of the sources the benchmark builds."""
    ctx = {"python": sys.version.split()[0]}
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        ctx["git_commit"] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        ctx["git_commit"] = None
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    ctx["source_digest"] = h.hexdigest()[:16]
    return ctx


def run_child(workload, seed, seconds, trace, deadline):
    """Runs the workload process; returns its result record or None."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-{'traced' if trace else 'plain'}"
    out = os.path.join(RESULTS_DIR, tag + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--reference", REFERENCE, "--out", out]
    if trace:
        cmd += ["--trace-out", os.path.join(RESULTS_DIR, tag + ".trace.json")]
    # Its own process group, so a timeout also stops the cluster workers.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"perfbench: {workload} exceeded the time budget")
        return None
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # Reap any stray worker.
    except ProcessLookupError:
        pass
    if rc != 0 or not os.path.exists(out):
        log(f"perfbench: {workload} exited with {rc}")
        return None
    with open(out) as f:
        return json.load(f)


def end_to_end_ok(rec):
    for name, unit in END_TO_END.items():
        m = rec["end_to_end"].get(name)
        if not m or m["unit"] != unit or not m["value"] > 0:
            log(f"perfbench: {rec['workload']} did not report {name}")
            return False
    return True


def table(title, metrics):
    log(title)
    for name in sorted(metrics):
        m = metrics[name]
        log(f"  {name:34s} {m['value']:16.6f} {m['unit']}")


def run_workload(workload, seed, seconds, trace, deadline, ctx):
    """Returns (correct, attempted, failed, metrics) or None when broken."""
    plain = run_child(workload, seed, seconds, False, deadline)
    if plain is None or not end_to_end_ok(plain):
        return None
    runs = [plain]
    metrics = plain["end_to_end"]
    if trace:
        traced = run_child(workload, seed, seconds, True, deadline)
        if traced is None or not end_to_end_ok(traced):
            return None
        runs.append(traced)
        metrics = {name: traced["per_layer"].get(name, {"value": 0.0,
                                                        "unit": unit})
                   for name, unit in PER_LAYER.items()}
        base = plain["end_to_end"]["configs_per_s"]["value"]
        slow = traced["end_to_end"]["configs_per_s"]["value"]
        metrics["trace.overhead_fraction"] = {"value": base / slow - 1.0,
                                              "unit": "ratio"}
        table(f"{workload} per-layer (traced run):", metrics)
        log(f"{workload} tracing overhead (traced minus untraced):")
        for name in END_TO_END:
            a = plain["end_to_end"][name]
            b = traced["end_to_end"][name]
            log(f"  {name:34s} {b['value'] - a['value']:+16.6f} {a['unit']}")
    else:
        table(f"{workload} end-to-end:", metrics)
    for rec in runs:
        rec["run_context"] = ctx
        log(f"{workload}: info {json.dumps(rec['info'])}")
        log(f"{workload}: context {json.dumps({**rec['context'], **ctx})}")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    log(f"{workload}: failed_fraction {failed / max(attempted, 1):.6f} "
        f"({failed} of {attempted} operations)")
    return failed == 0, attempted, failed, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    start = time.monotonic()

    if not build():
        return 1
    ctx = run_context()
    # A first run in a fresh checkout may spend most of its time building;
    # the workload still gets its own budget after the build.
    deadline = max(start + RUN_BUDGET_S, time.monotonic() + RUN_BUDGET_S - 5)
    if a.workload == "all":
        ok = True
        for w in WORKLOADS:
            r = run_workload(w, a.seed, a.seconds, a.trace,
                             time.monotonic() + RUN_BUDGET_S, ctx)
            ok = ok and r is not None and r[0]
        return 0 if ok else 1

    r = run_workload(a.workload, a.seed, a.seconds, a.trace, deadline, ctx)
    if r is None:
        return 1
    correct, attempted, failed, metrics = r
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
