#!/usr/bin/env python3
"""End-to-end campaign benchmark for NecoFuzz.

Builds e2ebench/ (the NecoFuzz library from src/ plus the necobench
program) with CMake, runs one workload, checks the merged campaign result
against the values pinned in pins.json when the seed is one of the pinned
ones, and prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload bf-intel-kvm --seed 1 --seconds 50 \
        --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes a Chrome trace-event file next to the build). The build goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench). Exits non-zero,
without a result line, when the build fails, and non-zero with
"correct": false when any check fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bf-intel-kvm", "guided-intel-xen-w3", "durable-amd-kvm-p2")
# Campaign digests per workload, budget ("full" or "tiny") and seed.
PINS = HERE / "pins.json"
# necobench must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_root() -> Path:
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(build_dir: Path) -> Path:
    """Configures and builds necobench; returns the binary's path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"e2ebench: build step failed: {' '.join(step)}")
    return build_dir / "necobench"


def pin_mismatches(digest, pin):
    """Names of the pinned fields the campaign digest disagrees with."""
    if digest is None:
        return ["digest missing"]
    return [key for key, want in pin.items() if digest.get(key) != want]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="campaign budgets divided by 20 (tests only)")
    args = parser.parse_args()

    root = build_root()
    binary = build(root / "e2ebench")
    size = "tiny" if args.tiny else "full"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(root / "work")]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        trace_out = root / "traces" / f"{args.workload}-{size}-seed{args.seed}.json"
        cmd += ["--trace-out", str(trace_out)]
    # Own process group, so a timeout also stops the shard children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"e2ebench: necobench exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if not lines:
        sys.exit(f"e2ebench: necobench printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])

    failed = report["failed"]
    errors = list(report["errors"])
    pin = json.loads(PINS.read_text())[args.workload][size].get(str(args.seed))
    if pin is not None:
        bad = pin_mismatches(report["digest"], pin)
        if bad:
            failed += 1
            errors.append("pinned result differs: " + ", ".join(bad))
    if proc.returncode != 0 and failed == 0:
        failed = 1
        errors.append(f"necobench exited with {proc.returncode}")
    for error in errors:
        print(f"e2ebench: check failed: {error}", file=sys.stderr)
    if args.trace:
        print(f"e2ebench: trace written to {trace_out}", file=sys.stderr)

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
