#!/usr/bin/env python3
"""The repository benchmark (see perfbench/NOTES.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload table1 --seed 42 --seconds 20 --trace 0

Builds the two benchmark programs from source into .bench_build/ (a Release
build of perfbench/CMakeLists.txt), runs one workload in its own
single-threaded process, checks the run's invariants and prints, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off. --trace 1 reports its per-layer metrics: counts from an
untraced Engine::Run of instance 0, and host self times from the traced
program, which alternates untraced and traced runs of the same instance.
An operation is one Engine::Run call; it fails when its invariant checks
or its digest checks fail.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Every run, the first build included, must end within this many seconds.
FIRST_BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


def run(cmd, timeout):
    """Runs `cmd` in its own process group, its stderr passed through.

    Returns (exit code, stdout). On timeout, or when this script is
    terminated, the whole group (make and compiler children included) is
    killed and waited for before the exception propagates.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(targets, timeout):
    """Configures (once) and builds `targets`; returns True on success."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        die("no SEVE sources next to perfbench/; run from a full checkout")
    deadline = time.monotonic() + timeout
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        code, out = run(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"], timeout)
        sys.stderr.write(out)
        if code != 0:
            return False
    code, out = run(["cmake", "--build", BUILD, "-j",
                     str(os.cpu_count() or 1), "--target", *targets],
                    deadline - time.monotonic())
    sys.stderr.write(out)
    return code == 0


class ProgramFailed(Exception):
    pass


def run_program(name, args, timeout):
    """Runs a benchmark program; returns its last stdout line as JSON."""
    code, out = run([os.path.join(BUILD, name), *args], timeout)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise ProgramFailed(f"{name} exited with {code}")
    return json.loads(lines[-1])


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tree_sha256():
    """Digest of the sources under test, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def declared_metrics(key):
    """(name, unit) pairs of one metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec[key]]


def overrides(args):
    """--set flags for the programs (scaling checks in NOTES.md)."""
    return [x for kv in args.set for x in ("--set", kv)]


def end_to_end(args, deadline):
    e2e = run_program("perfbench_e2e",
                      ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), *overrides(args)],
                      deadline - time.monotonic())
    values = dict(e2e["sim"])
    values["moves_per_s"] = e2e["moves_per_s"]
    values["setup_s"] = statistics.median(e2e["setup_s"])
    values["peak_rss_mb"] = e2e["peak_rss_mb"]
    attempted = len(e2e["setup_s"]) + len(e2e["run_s"])
    context = {
        "instances": e2e["instances"],
        "timed_reps": len(e2e["run_s"]),
        "setup_reps": len(e2e["setup_s"]),
        "moves_submitted": e2e["submitted"],
        "moves_answered": e2e["answered"],
        "response_samples": e2e["answered"],
        "audit_compared": e2e["audit_compared"],
        "audit_mismatches": e2e["audit_mismatches"],
        "report_digest": e2e["report_digest"],
        "moves_per_cpu_s": e2e["submitted"] * len(e2e["run_s"]) /
        e2e["instances"] / sum(e2e["cpu_s"]),
        "build_type": e2e["build_type"],
        "violations": e2e["violations"],
    }
    return values, attempted, e2e["failed_reps"], context


def per_layer(args, deadline):
    # Counts and process counters: one untraced Engine::Run of instance 0
    # in a fresh process.
    e2e = run_program("perfbench_e2e",
                      ["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", "0", "--instances", "1",
                       "--setup-reps", "0", *overrides(args)],
                      deadline - time.monotonic())
    values = dict(e2e["counts"])
    attempted = len(e2e["run_s"])
    failed = e2e["failed_reps"]
    context = {
        "build_type": e2e["build_type"],
        "report_digest": e2e["report_digest"],
        "violations": e2e["violations"],
    }
    traced = None
    try:
        if build(["perfbench_traced"], deadline - time.monotonic()):
            spans = os.path.join(BUILD, f"spans-{args.workload}.csv")
            traced = run_program("perfbench_traced",
                                 ["--workload", args.workload,
                                  "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--spans-out", spans, *overrides(args)],
                                 deadline - time.monotonic())
            context["spans_csv"] = os.path.relpath(spans, ROOT)
    except (subprocess.TimeoutExpired, ProgramFailed) as err:
        log(f"traced run unavailable: {err}")
    parity = traced is not None and traced["parity"] == 1 and all(
        traced[k] == e2e[k]
        for k in ("final_state_digest", "client_digests", "events_run"))
    values["trace.parity"] = 1 if parity else 0
    if traced is not None:
        # Traced runs are the benchmark's instrument, not operations of the
        # program: without parity their rows are missing, nothing failed.
        attempted += len(traced["untraced_s"])
        context["spans"] = traced["spans"]
    if parity:
        for name, rows in traced["rows"].items():
            values[name] = statistics.median(rows)
        values["trace.overhead_frac"] = (
            statistics.median(traced["wall_s"]) /
            statistics.median(traced["untraced_s"]) - 1.0)
    return values, attempted, failed, context


def selftest():
    if not build(["perfbench_test"], FIRST_BUILD_TIMEOUT_S):
        die("perfbench_test does not build", 1)
    return subprocess.run([os.path.join(BUILD, "perfbench_test")]).returncode


def main():
    # A terminated run raises SystemExit, so run() kills its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="table1, fanout, sharded or churn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override the workload's dominant input: "
                        "walls, clients, shards or loss (scaling checks)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    start = time.monotonic()
    try:
        if not build(["perfbench_e2e"], FIRST_BUILD_TIMEOUT_S):
            die("perfbench_e2e does not build", 1)
    except subprocess.TimeoutExpired:
        die("build timed out", 1)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    load_before = os.getloadavg()[0]
    try:
        if args.trace:
            values, attempted, failed, context = per_layer(args, deadline)
        else:
            values, attempted, failed, context = end_to_end(args, deadline)
    except subprocess.TimeoutExpired:
        die("run timed out", 1)
    except ProgramFailed as err:
        die(str(err), 1)
    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "overrides": args.set,
        "trace": args.trace,
        "git_sha": git_sha(),
        "tree_sha256": tree_sha256(),
        "nproc": os.cpu_count(),
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "wall_s": time.monotonic() - start,
    })

    spec = declared_metrics("per_layer" if args.trace else "end_to_end")
    if args.trace and not values["trace.parity"]:
        # Without parity the traced rows are missing, not wrong.
        for name, _ in spec:
            values.setdefault(name, None)
    missing = [name for name, _ in spec if name not in values]
    if missing:
        die(f"no value for declared metrics {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec}
    print(json.dumps({"context": context}, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']!s:>24} {m['unit']}")
    print(json.dumps({
        "correct": not context["violations"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
