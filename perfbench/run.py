#!/usr/bin/env python3
"""Served-path benchmark for sequin.

Builds the `sequin` binary and the `perfbench` load generator from source,
then runs one workload against a `sequin serve` child over loopback TCP:

    python3 perfbench/run.py --workload light --seed 1 --seconds 32 --trace 0

Run it from the root of the repository; `--workload all` runs the four
workloads one after another. `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer metrics of the traced pass. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Each workload's rates and p99 limit
come from `perfbench/workloads.json`, which also records why each workload
exists. Build output goes to `$CARGO_TARGET_DIR` (default `.bench_build`),
run files to `.perfbench_out`.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # cargo reports on stderr; keep stdout for the result line
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads:
            sys.exit(f"perfbench: unknown workload {name!r} "
                     f"(expected all or one of {', '.join(workloads)})")

    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest):
        sys.exit("perfbench: no Cargo.toml at the repository root to build sequin from")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target, manifest, ["--bin", "sequin"])
    build(target, os.path.join(HERE, "Cargo.toml"), [])

    release = os.path.join(target, "release")
    status = 0
    for name in names:
        spec = workloads[name]
        cmd = [
            os.path.join(release, "perfbench"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--sequin", os.path.join(release, "sequin"),
            "--saturating-events", str(spec["saturating_events"]),
            "--low-eps", str(spec["low_eps"]),
            "--high-eps", str(spec["high_eps"]),
            "--p99-limit-ms", str(spec["p99_limit_ms"]),
            "--scratch", os.path.join(ROOT, ".perfbench_out"),
        ]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    sys.exit(status)


if __name__ == "__main__":
    main()
