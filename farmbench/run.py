#!/usr/bin/env python3
"""Build and run the farm benchmark.

Usage, from the repository root:

    python3 farmbench/run.py --workload bulk --seed 1 --seconds 10 --trace 0

Builds farmbench/ (its own Go module, which compiles the repository's
packages from source) into .bench_build/ and runs it from the repository
root with the arguments given. The Go build cache, module cache and tool
configuration also live under .bench_build/, so nothing outside the
checkout is written. The benchmark's output, whose last line is the JSON
result, passes through unchanged; a failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(root, ".bench_build")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(work, "gocache"),
        "GOPATH": os.path.join(work, "gopath"),
        "GOMODCACHE": os.path.join(work, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(work, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
    })
    binary = os.path.join(work, "farmbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "farmbench"), env=env,
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("farmbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
