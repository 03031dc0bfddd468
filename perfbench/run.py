#!/usr/bin/env python3
"""Build the benchmark from the tree it sits in, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload wish_lan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest      # tests of the benchmark's own code

The build goes to the directory named by $CARGO_TARGET_DIR (relative to the
current directory) or else `.bench_build`. Build output goes to stderr; the
last line of stdout is the benchmark's JSON result. Exits non-zero, printing
no result, when the build or the run fails.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return out / target


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def src_digest():
    """sha256 over the proxy sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    if args == ["--selftest"]:
        sys.exit(subprocess.run([str(build("perfbench_tests"))]).returncode)
    binary = build("perfbench")
    run_dir = build_dir() / "runs"
    cmd = [str(binary), *args, "--git-sha", git_sha(), "--src-digest", src_digest(),
           "--run-dir", str(run_dir)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
        sys.exit(done.returncode or 1)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit("perfbench: malformed result line")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
