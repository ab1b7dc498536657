#!/usr/bin/env python3
"""Builds and runs uteperf, the end-to-end benchmark (see LAYERS.md).

    python3 perfbench/run.py --workload batch|query|live|all --seed N \
        --seconds S --trace 0|1

Run from the repository root. The benchmark is configured and built from
source into .bench_build/ (or $CARGO_TARGET_DIR) on first use; all files
it writes go to .bench_out/. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when the run completed and every output checked out.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch", "query", "live")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "uteperf")


def scratch_env():
    """The environment with temporary files kept inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the uteperf binary; returns its path."""
    out = build_dir()
    env = scratch_env()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       env=env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "uteperf", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return os.path.join(out, "uteperf")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_one(binary, workload, args, commit):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"), "--commit", commit]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, env=scratch_env())
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        log(f"uteperf {workload}: timed out after {RUN_TIMEOUT_S} s")
        return None, 124
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    # Everything but the result line is the human-readable report.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"uteperf {workload}: no result line (exit {r.returncode})")
        return None, r.returncode or 1
    return result, r.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"uteperf: build failed: {e}")
        return 3
    commit = source_id()

    if args.workload != "all":
        result, code = run_one(binary, args.workload, args, commit)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # All three workloads in one go; metric names get a workload prefix.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        result, rc = run_one(binary, workload, args, commit)
        if result is None:
            return rc or 1
        code = code or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
