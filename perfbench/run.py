#!/usr/bin/env python3
"""Build and run one perfbench measurement from the root of a ptm checkout.

    python3 perfbench/run.py --workload ingest|query|mixed --seed N \
        --seconds S --trace 0|1

--trace 0 runs perfbench_e2e (the end-to-end metrics); --trace 1 runs
perfbench_probes (the per-layer metrics, spans written under the build
directory).  Both print their result as the last line of standard output.
The program is built from the checkout's own sources into
$CARGO_TARGET_DIR (default .bench_build); every run gets a fresh working
directory there, removed afterwards.  Child processes run in their own
process group, which is killed on every exit path.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("ingest", "query", "mixed")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

_child = None


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def kill_child():
    """SIGTERM first, so the harness can kill and reap its daemons itself;
    SIGKILL to the whole group if it has not exited after a grace period."""
    if _child is None or _child.poll() is not None:
        return
    for sig, grace in ((signal.SIGTERM, 5), (signal.SIGKILL, None)):
        try:
            os.killpg(_child.pid, sig)
        except ProcessLookupError:
            pass
        try:
            _child.wait(timeout=grace)
            return
        except subprocess.TimeoutExpired:
            continue


def on_signal(signum, _frame):
    kill_child()
    sys.exit(128 + signum)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return _child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_child()
        fail(f"{os.path.basename(cmd[0])} timed out after {timeout} s", 1)
    finally:
        kill_child()
        _child = None


def build(root, build_dir, targets):
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_group([cmake, "-S", os.path.join(root, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                     BUILD_TIMEOUT_S, stdout=log, stderr=log) != 0:
            fail("configure failed", 1)
    if run_group([cmake, "--build", build_dir, "-j", jobs, "--target"] +
                 targets, BUILD_TIMEOUT_S, stdout=log, stderr=log) != 0:
        fail("build failed", 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {WORKLOADS}")

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/ptmd.cpp"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"no ptm sources here ({needed} missing); run from the "
                 "root of a ptm checkout")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGHUP, on_signal)

    target_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(target_dir, "perfbench")
    program = "perfbench_probes" if args.trace else "perfbench_e2e"
    build(root, build_dir, ["ptmd", program])

    workdir = os.path.join(target_dir, "perfbench-runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [os.path.join(build_dir, program), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--ptmd", os.path.join(build_dir, "ptm", "tools", "ptmd"),
           "--workdir", workdir]
    if args.trace:
        spans_dir = os.path.join(target_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir,
                                        f"{args.workload}-{args.seed}.jsonl")]
    try:
        code = run_group(cmd, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        fail(f"{program} exited with {code}", 1)


if __name__ == "__main__":
    main()
