#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload syn-heavy --seed 20140613 --seconds 20 --trace 0

The Go program is built from source into the build directory
($CARGO_TARGET_DIR, default .bench_build), with the Go build cache kept
there too, so a run reads and writes only inside the checkout. Arguments are
passed through unchanged; the program's output and exit code are its own.
"""

import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    tmp = os.path.join(build, "gotmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build, "perfbench-out")]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
