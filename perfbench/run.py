#!/usr/bin/env python3
"""Build the program under test from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload assess-sweep --seed 1 --seconds 35 --trace 0

Workloads: assess-sweep, assess-rpc, campaign.  The build goes to
.bench_build (release profile, dune cache off, so nothing is written
outside the checkout); the generator perfbench/main.exe then runs
against the freshly built bin/main.exe.  The generator's last stdout
line is the JSON result.  Exits non-zero, printing no result, when the
sources are missing or the build fails.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main() -> int:
    if not all(os.path.exists(p) for p in ("dune-project", "bin/main.ml", "lib")):
        print("perfbench: run from the repository root; sources not found", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./bin/main.exe", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env, timeout=850, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    generator = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    program = os.path.join(BUILD_DIR, "default", "bin", "main.exe")
    child = subprocess.Popen([generator, *sys.argv[1:], "--main", program], env=env)

    def stop(signum, _frame):
        # The generator reaps the processes it started when terminated.
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=175)
    except subprocess.TimeoutExpired:
        child.terminate()
        child.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
