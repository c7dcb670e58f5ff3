#!/usr/bin/env python3
"""Builds the engine and the benchmark from source, then runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload durable_mix --seed 1 --seconds 15 \
        --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/ under the
repository root; the database lives in a scratch directory inside it that
is removed afterwards. Traced runs (--trace 1) also write their spans to
<build dir>/traces/<workload>.spans.jsonl. The last line of standard
output is the result JSON printed by the benchmark binary; build output
goes to standard error.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("hot_reads", "cold_reads", "durable_mix", "cross_shard")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest(root):
    """sha256 over the engine and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".py", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def cached_source_dir(build):
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path
    or None."""
    src = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(root, "src")):
        log("error: engine sources (src/) not found next to perfbench/")
        return None
    cached = cached_source_dir(build_dir)
    if cached is not None and os.path.realpath(cached) != os.path.realpath(src):
        shutil.rmtree(build_dir)  # the checkout moved; start over
    if cached_source_dir(build_dir) is None:
        r = subprocess.run(["cmake", "-S", src, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "tsb_perfbench"],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        return None
    return os.path.join(build_dir, "tsb_perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(root, build_dir)
    if binary is None:
        log("error: benchmark build failed")
        return 1

    work = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--git-sha", git_sha(root),
           "--src-digest", source_digest(root)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(traces, args.workload + ".spans.jsonl")]
    # A terminated run.py still stops and reaps the benchmark (finally).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("error: benchmark exited with code %d" % proc.returncode)
        return proc.returncode if proc.returncode > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
