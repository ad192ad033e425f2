#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) against the sources
in this checkout, into $CARGO_TARGET_DIR (default `.bench_build`), then
runs one workload. The benchmark prints host facts, correctness checks
and every metric with its unit; its last line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. The exit code
is 0 only when the build succeeded, every correctness check held and
that JSON line was printed. Workloads: tcp_light, tcp_peak,
sfs_threaded, sim_fig7 (see perfbench/README.md).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# A run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        # Show what the benchmark said, but print no result line.
        sys.stderr.write(stdout)
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and not result["correct"]:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
