#!/usr/bin/env python3
"""Builds the sf2d benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the library crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then run with the same
arguments; the binary sets the thread count of every layer itself.

The binary reports the figures of every operation its workload runs. The
result line this script prints last keeps the metrics BENCHMARK.json lists,
the end-to-end ones for --trace 0 and the per-layer ones for --trace 1,
which every workload reports; it fails without a result line when one is
missing or its unit differs. A traced run (--trace 1) also writes its span tree to
<target>/perfbench/traces/<workload>-seed<N>.json, and every run checks
its deterministic counts against earlier runs of the same binary and seed
kept under <target>/perfbench/determinism/.
"""

import json
import os
import subprocess
import sys

def arg(name):
    argv = sys.argv[1:]
    for i, a in enumerate(argv[:-1]):
        if a == name:
            return argv[i + 1]
    return None


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    out = os.path.join(target, "perfbench")
    extra = ["--det-dir", os.path.join(out, "determinism")]
    if arg("--trace") == "1":
        name = "%s-seed%s.json" % (arg("--workload"), arg("--seed"))
        extra += ["--trace-out", os.path.join(out, "traces", name)]
    exe = os.path.join(target, "release", "sf2d-perfbench")
    run = subprocess.run([exe] + sys.argv[1:] + extra, env=env,
                         stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        return run.returncode or 1

    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        manifest = json.load(f)
    listed = manifest["per_layer" if arg("--trace") == "1" else "end_to_end"]
    result = json.loads(lines[-1])
    metrics = {}
    for m in listed:
        got = result["metrics"].get(m["name"])
        if got is None or got["value"] is None or got["unit"] != m["unit"]:
            print("perfbench: metric %s missing or not in %s: %r"
                  % (m["name"], m["unit"], got), file=sys.stderr)
            return 1
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
