#!/usr/bin/env python3
"""Build the ElasticRMI benchmark from source and run one workload.

Run from the repository root:

    python3 benchmark/run.py --workload rmi-echo --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (benchmark/go.mod) that uses the
repository's module through a local replace directive. Everything the build
and the run write stays under .bench_build/ in the current directory: the
Go build cache, the binary, the store's files and span dumps. The arguments
are passed to the binary unchanged; the last line it prints is the JSON
result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "ermi-benchmark")
    built = subprocess.run(
        ["go", "build", "-trimpath", "-o", binary, "."],
        cwd=HERE,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    args = [binary] + sys.argv[1:] + ["--scratch", build]
    os.execve(binary, args, env)


if __name__ == "__main__":
    sys.exit(main())
