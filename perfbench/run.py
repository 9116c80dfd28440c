#!/usr/bin/env python3
"""Build the perfbench program from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload boot-k48 --seed 1 --seconds 20 --trace 0

The Go build cache and the binary live in .bench_build/ at the root,
so the benchmark reads and writes nothing outside the checkout apart
from the Go toolchain it runs. Arguments are passed to the program
unchanged; see main.go for their meaning. The exit code is the
program's, or 2 when the program cannot be built.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        # The go command keeps its env file and telemetry under the
        # user config directory; keep both inside the checkout.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
        GOPROXY="off",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    tmp = "%s.%d" % (binary, os.getpid())
    build = subprocess.run(
        [go, "build", "-buildvcs=false", "-o", tmp, "."],
        cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.replace(tmp, binary)
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
