#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-deep-adv --seed 1 --seconds 15 --trace 0

The benchmark is the Go program in this directory, a module of its own that
builds the protocol from the surrounding source tree (go.mod replaces
`yosompc` with `..`). Everything the build and the runs write stays under
the build directory: $CARGO_TARGET_DIR when set, else .bench_build at the
repository root. Arguments pass through unchanged; the program's exit code
is returned.
"""

import os
import subprocess
import sys


def main() -> int:
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    for need in ("go.mod", os.path.join("internal", "core"), os.path.join("internal", "baseline")):
        if not os.path.exists(os.path.join(root, need)):
            print(f"perfbench: {need} not found under {root}; run from a source checkout",
                  file=sys.stderr)
            return 2

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    work = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(work, "gocache"),
        "GOPATH": os.path.join(work, "gopath"),
        "GOTMPDIR": os.path.join(work, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(work, "config"),
        "GOFLAGS": "-buildvcs=false",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOENV": "off",
    })
    for d in ("gocache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(work, d), exist_ok=True)

    binary = os.path.join(work, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    ran = subprocess.run([binary, *sys.argv[1:], "-trace-dir", os.path.join(work, "traces")],
                         cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
