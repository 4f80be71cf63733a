#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload mux-sim --seed 1 --seconds 45 --trace 0

Workloads: mux-sim, long-value. The build is dune's,
in the release profile, into _build/ under the repository root; its output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/main.exe"


def main() -> None:
    # Keep every build artifact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (dune exit {build.returncode})")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()
