#!/usr/bin/env python3
"""Builds the `bbsched` CLI and the `perfbench` binary in release mode,
then runs `perfbench` with this script's arguments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. NAME is one of the workloads in
BENCHMARK.json, or `all`. Build output goes to `$CARGO_TARGET_DIR`
(default `.bench_build`); journals, daemon logs and span files go to
`.bench_work`. Cargo's output goes to stderr, so the last stdout line is
`perfbench`'s JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", "Cargo.toml", "-p", "bbsched-cli"],
        ["--manifest-path", "perfbench/Cargo.toml"],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "perfbench")
    cli = os.path.join(target, "release", "bbsched")
    workdir = os.path.join(ROOT, ".bench_work")
    os.execv(bench, [bench, *sys.argv[1:], "--bbsched", cli, "--workdir", workdir])


if __name__ == "__main__":
    sys.exit(main())
