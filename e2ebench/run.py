#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (stdlib only).

    python3 e2ebench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 e2ebench/run.py --smoke

The first call configures and builds the top-level project's `uvd` library
(tests, benches and examples off) into $CARGO_TARGET_DIR/uvd and bench_e2e
against it into $CARGO_TARGET_DIR/e2ebench (default .bench_build/);
later calls rebuild incrementally. The run's full JSON record and, with
--trace 1, its Chrome trace land in .bench_out/. The last stdout line is
the result object the benchmark prints. Build or run failures exit non-zero
without printing a result.

--smoke runs every workload at 1/50 size with and without tracing and
checks that each run is correct, emits exactly the metrics BENCHMARK.json
declares (with their units) and the expected spans, and that both
unattributed fractions stay under 5%. It checks no timings.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["uniform_pnn", "uniform_ids_cold", "cloud_trajectory_sharded",
             "live_insert_mix"]
BUILD_TIMEOUT_S = 700  # all build steps together
RUN_TIMEOUT_S = 170

# Spans every traced run must record, plus the workload-specific ones.
COMMON_SPANS = {"generate", "store_bulkload", "bulkload", "stage1", "build_total",
                "checkpoint", "open", "engine_query", "query_total", "locate", "cache",
                "leaf_read", "verify", "pnn_eval"}
EXTRA_SPANS = {"uniform_pnn": {"stage2"}, "uniform_ids_cold": {"stage2"},
               "cloud_trajectory_sharded": {"build"},
               "live_insert_mix": {"stage2", "insert", "invalidate"}}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Builds the top-level project's `uvd` library, then bench_e2e against
    it (configuring each build directory once); returns the binary's path
    or None."""
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))
    lib_dir, bench_dir = os.path.join(base, "uvd"), os.path.join(base, "e2ebench")
    os.makedirs(base, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    release = "-DCMAKE_BUILD_TYPE=Release"
    with open(os.path.join(base, ".e2ebench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(lib_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", lib_dir, release,
                          "-DUVD_BUILD_TESTS=OFF", "-DUVD_BUILD_BENCHES=OFF",
                          "-DUVD_BUILD_EXAMPLES=OFF"])
        steps.append(["cmake", "--build", lib_dir, "--target", "uvd", "--parallel", jobs])
        if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bench_dir, release,
                          "-DUVD_LIBRARY=" + os.path.join(lib_dir, "libuvd.a")])
        steps.append(["cmake", "--build", bench_dir, "--parallel", jobs])
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        for cmd in steps:
            try:
                # A session of its own, so a timeout also stops make's and
                # the compilers' processes.
                proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                        start_new_session=True)
            except OSError as err:
                log("build failed:", err)
                return None
            try:
                proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                log("build timed out:", " ".join(cmd))
                return None
            if proc.returncode != 0:
                log("build failed:", " ".join(cmd))
                return None
    binary = os.path.join(bench_dir, "bench_e2e")
    return binary if os.path.exists(binary) else None


def revision():
    """The git revision (marked +dirty with uncommitted changes) when the
    checkout is a repository, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                    capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and head.stdout.strip():
                dirty = "+dirty" if status.stdout.strip() else ""
                return head.stdout.strip() + dirty
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    for base in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run(binary, workload, seed, seconds, trace, scale=None, quiet=False, record_dir=None):
    """Runs one benchmark process; returns (exit code, stdout lines, record path)."""
    out_dir = os.path.join(ROOT, ".bench_out")
    record_dir = record_dir or out_dir
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(record_dir, exist_ok=True)
    record = os.path.join(record_dir, "run_%s_s%d_t%d.json" % (workload, seed, trace))
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace, "--rev=" + revision(),
           "--json=" + record, "--out-dir=" + out_dir]
    if scale is not None:
        cmd.append("--scale=%s" % scale)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out:", " ".join(cmd))
        return 1, [], record
    if not quiet or proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines(), record


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke_problems(binary, workload, trace, declared):
    """Runs one smoke-size process; returns what is wrong with it."""
    code, lines, _ = run(binary, workload, 1, 20, trace, scale=0.02, quiet=True)
    if code != 0 or not lines:
        return ["exit %d" % code]
    problems = []
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        problems.append("%d failed operations" % result["failed"])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        problems.append("metrics differ from BENCHMARK.json: missing %s, undeclared %s"
                        % (sorted(set(declared) - set(got)), sorted(set(got) - set(declared))))
    if trace == 1:
        for name in ("build.unattributed_frac", "serve.unattributed_frac"):
            value = result["metrics"].get(name, {}).get("value")
            if value is None or abs(value) >= 0.05:
                problems.append("%s = %s" % (name, value))
        with open(os.path.join(ROOT, ".bench_out", "trace_%s_1.json" % workload)) as f:
            spans = {e["name"] for e in json.load(f)["traceEvents"]}
        missing = (COMMON_SPANS | EXTRA_SPANS[workload]) - spans
        if missing:
            problems.append("spans missing: %s" % sorted(missing))
    return problems


def smoke(binary):
    contract = load_contract()
    declared = {0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
                1: {m["name"]: m["unit"] for m in contract["per_layer"]}}
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = smoke_problems(binary, workload, trace, declared[trace])
            log("smoke %-26s trace=%d %s" % (workload, trace, "FAILED" if problems else "ok"))
            for p in problems:
                log("  ", p)
            failed = failed or bool(problems)
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-dir", help="where the run's JSON record goes "
                        "(default .bench_out); bench_compare.py diffs two such directories")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    code, lines, _ = run(binary, args.workload, args.seed, args.seconds, args.trace,
                         record_dir=args.record_dir)
    if code != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        log("bench_e2e exited with", code)
        return code or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
