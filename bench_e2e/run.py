#!/usr/bin/env python3
"""Builds and runs the CaliQEC end-to-end benchmark.

Usage, from the repository root:

    python3 bench_e2e/run.py --workload decode_d15 --seed 1 --seconds 10 --trace 0

Builds the benchmark package in this directory (release profile, offline,
into $CARGO_TARGET_DIR, default `.bench_build`), runs one workload in its
own process and prints the run header, then as the last line the JSON
result with `correct`, `attempted`, `failed` and `metrics`. The header
names the source tree (git commit when available, else a hash of the
sources), the rustc version, the host cores and the threads the workload
used. A full record with notes and spans goes to bench_e2e/out/.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decode_d15", "runtime_trace", "stream_tenants")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"bench_e2e: {msg}", file=sys.stderr)
    sys.exit(1)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else None


def source_hash():
    """SHA-256 over the workspace sources the benchmark builds from."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "bench_e2e/Cargo.toml", "bench_e2e/src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".rs", ".toml", ".lock")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from a full checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(ROOT, target, "release", "caliqec-e2e-bench")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    record = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", record]
    try:
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = [l for l in run.stdout.splitlines() if l.strip()]
    if run.returncode != 0 or len(lines) < 2:
        fail(f"run failed with exit code {run.returncode}")
    header = json.loads(lines[0])["header"]
    json.loads(lines[-1])
    header["commit"] = tool_output(["git", "rev-parse", "HEAD"]) or "unknown"
    header["source_sha256"] = source_hash()
    header["rustc"] = tool_output(["rustc", "--version"]) or "unknown"
    with open(record) as fh:
        full = json.load(fh)
    full["run"] = {"header": header}
    with open(record, "w") as fh:
        json.dump(full, fh)
    print(json.dumps({"header": header}))
    print(lines[-1])


if __name__ == "__main__":
    main()
