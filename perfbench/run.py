#!/usr/bin/env python3
"""Repository benchmark: build optsched from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search-heavy --seed 1 --seconds 30 --trace 0

Workloads: search-heavy, dist-heavy, serve-mix, resolve-churn (see
perfbench/README.md). The first run configures and builds a Release tree
under .bench_build/; later runs only rebuild what changed.

Output: a host-context record line (git sha, source digest, compiler,
build type, nproc, load average, and every metric with its detail), then
as the last line the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics and writes
span JSONL plus a per-layer table to .bench_build/out/.

--record FILE appends the record line to FILE (the input of compare.py).
--write-refs regenerates perfbench/refs.json, the committed references.

Exits non-zero without a result when the sources are missing, the build
fails or is not Release, or the driver fails.
"""
import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("search-heavy", "dist-heavy", "serve-mix", "resolve-churn")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
CLI = os.path.join(BUILD_DIR, "optsched", "examples", "optsched_cli")
REFS = os.path.join("perfbench", "refs.json")
DRIVER_TIMEOUT_S = 170
# Files whose content determines the measured program.
SOURCE_ROOTS = ("CMakeLists.txt", "cmake", "src", "examples/optsched_cli.cpp",
                "perfbench")


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(need):
            die(f"{need} not found: run from the root of an optsched checkout")
    os.makedirs(OUT_DIR, exist_ok=True)
    # Serialize concurrent runs on one build tree.
    with open(os.path.join(".bench_build", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"] + generator)
        step(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
              "optsched_cli", "-j", str(os.cpu_count() or 1)])


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die(f"build step failed: {' '.join(cmd)}")


def source_digest():
    h = hashlib.sha256()
    for root in SOURCE_ROOTS:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for path in sorted(paths):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def run_driver(args):
    """Run the driver in its own session so a timeout also stops the
    worker processes and daemons it spawned."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"driver exceeded {DRIVER_TIMEOUT_S} s", 3)
    if proc.returncode != 0:
        die(f"driver exited with {proc.returncode}", 3)
    lines = out.strip().splitlines()
    if not lines:
        die("driver printed no result", 3)
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="append the record line to this file")
    p.add_argument("--write-refs", action="store_true",
                   help="regenerate perfbench/refs.json and exit")
    a = p.parse_args()
    if not a.write_refs and a.workload is None:
        p.error("--workload is required")
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    load_1m = os.getloadavg()[0]
    build()
    if a.write_refs:
        if subprocess.run([DRIVER, "--write-refs", REFS]).returncode != 0:
            die("reference generation failed", 3)
        return
    if not os.path.isfile(REFS):
        die(f"{REFS} not found")

    result = run_driver([DRIVER, "--workload", a.workload,
                         "--seed", str(a.seed), "--seconds", str(a.seconds),
                         "--trace", str(a.trace), "--refs", REFS,
                         "--cli", CLI, "--out-dir", OUT_DIR])
    if result["build_type"] != "Release":
        die(f"refusing to report from a {result['build_type']} build", 3)

    host = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": load_1m,
        "machine": platform.machine(),
    }
    record = {"host": host, "workload": a.workload, "seed": a.seed,
              "seconds": a.seconds, "trace": a.trace,
              "correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"], "detail": result["detail"],
              "metrics": result["metrics"]}
    line = json.dumps(record, sort_keys=True)
    print(line)
    if a.record:
        with open(a.record, "a") as f:
            f.write(line + "\n")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
