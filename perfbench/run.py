#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload paper_star5 --seed 0 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the current directory; its output goes to stderr. A traced run
(--trace 1) writes its span file next to the build. Everything else the
benchmark prints goes to stdout, whose last line is the JSON result. See
perfbench/README.md.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds incrementally; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs]]
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return build_dir / "retri_perfbench"


def flag_value(argv, flag):
    if flag in argv and argv.index(flag) + 1 < len(argv):
        return argv[argv.index(flag) + 1]
    return None


def main(argv):
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    try:
        exe = build(build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    args = list(argv)
    if flag_value(args, "--trace") == "1" and "--trace-out" not in args:
        name = f"spans-{flag_value(args, '--workload')}-{flag_value(args, '--seed')}.json"
        args += ["--trace-out", str(build_dir / name)]
    try:
        return subprocess.run([str(exe)] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
