#!/usr/bin/env python3
"""Build and run the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload run-sparse --seed 1 --seconds 20 --trace 0

Run it from the repository root. The Go program next to this script is
built from source into the build directory ($CARGO_TARGET_DIR, default
.bench_build, relative to the repository root), with Go's caches and
temporary files kept there as well, then run with the same arguments.
Its last stdout line, the JSON result, is checked against the metric
lists in BENCHMARK.json and printed. A failed build or run exits non-zero
without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, **kwargs):
    """Run cmd to completion; the child is killed if this process stops first."""
    try:
        proc = subprocess.Popen(cmd, **kwargs)
    except OSError as e:
        fail("cannot start %s: %s" % (cmd[0], e))
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def expected_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    # Turn SIGTERM into an exception, so run()'s cleanup kills the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="Build and run the benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    code, _ = run(
        ["go", "build", "-trimpath", "-buildvcs=false", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed")

    code, out = run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace), "--scratch", tmp],
        cwd=ROOT, env=env, stdout=subprocess.PIPE,
    )
    if code != 0:
        fail("benchmark exited with status %d" % code)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_units(args.trace)
    if got != want:
        fail("metrics %s do not match BENCHMARK.json's %s" % (sorted(got.items()), sorted(want.items())))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
