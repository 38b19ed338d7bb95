#!/usr/bin/env python3
"""Build and run the end-to-end replay benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot-services --seed 1 --seconds 30 --trace 0

Run it from the repository root.  It configures and builds perfbench/ (which
compiles ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the untraced binary (--trace 0) or the
traced one (--trace 1).  Standard output ends with a `perfbench-env {...}`
line recording the environment and, last, the result object.  Build logs and
a human-readable summary go to standard error.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot-services", "wide-fanout", "cold-churn")
# The binary stops starting replays once --seconds is used up, but the last
# one may run over; this only catches a hung run.
def run_timeout_s(seconds):
    return 2 * seconds + 60


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision():
    """HEAD and a dirty flag, or None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             check=True, capture_output=True,
                             text=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                check=True, capture_output=True,
                                text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"sha": sha, "dirty": bool(status.strip())}


def source_digest():
    """sha256 over src/ and perfbench/: identifies the code outside git."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no edgesim sources at %s/src; run from a full checkout"
            % ROOT)
        return 2

    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(target_dir, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: %s" % error)
        return 2

    binary = os.path.join(build_dir,
                          "perfbench_traced" if args.trace else "perfbench")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % timeout)
        return 1

    lines = proc.stdout.splitlines()
    env = {}
    for line in lines:
        if line.startswith("perfbench-env "):
            env = json.loads(line[len("perfbench-env "):])
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: no result from %s (exit %d)" % (binary,
                                                        proc.returncode))
        return proc.returncode or 1

    revision = git_revision()
    if revision is None:
        env["source_sha256"] = source_digest()
    env.update({
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git": revision or "not a git checkout",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    print("perfbench-env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
