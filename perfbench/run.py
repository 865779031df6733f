#!/usr/bin/env python3
"""Build and run one workload of the FedGuard end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (its own CMake project, which compiles the repository's
src/ tree) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the workload in a child process. The child prints a report line
(host fingerprint, every figure, check failures) and a result line; this
script checks the program trace the telemetry workload leaves, then
re-prints both lines, the result line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted/failed count rounds and client updates, plus the workload process
itself, which fails when it exits non-zero after reporting. --smoke runs
every code path at toy size; --binary runs an already built fedbench instead
of building. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fedguard_signflip", "multikrum_wide", "socket_two_tier", "fedguard_telemetry")
CHILD_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no FedGuard source tree at {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    build_dir = target / "perfbench"
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir), *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "fedbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "fedbench"


def check_program_trace(path):
    """Events in a Chrome trace_event file, and why it is broken (None if it
    is not): it must load as JSON and hold as many E as B events on every
    (pid, tid) lane, no E before its B."""
    try:
        with open(path, encoding="utf-8") as file:
            events = json.load(file)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        return 0, f"does not load ({error})"
    depth = Counter()
    for event in events:
        lane = (event.get("pid"), event.get("tid"))
        if event.get("ph") == "B":
            depth[lane] += 1
        elif event.get("ph") == "E":
            depth[lane] -= 1
            if depth[lane] < 0:
                return len(events), f"E event before its B on lane {lane}"
    if any(depth.values()):
        return len(events), "unbalanced B/E events"
    return len(events), None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true", help="toy sizes, every code path")
    parser.add_argument("--binary", help="run this fedbench instead of building one")
    parser.add_argument("--out-dir", default=str(ROOT / ".bench_out"),
                        help="where the traces and metrics files go")
    args = parser.parse_args()

    try:
        binary = args.binary or build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", args.out_dir]
    if args.smoke:
        command.append("--smoke")
    started = time.monotonic()
    try:
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {CHILD_TIMEOUT_S} s")
        return 1
    lines = [line for line in child.stdout.splitlines() if line.strip()]
    try:
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected result keys {sorted(result)}")
    except (IndexError, KeyError, ValueError) as error:
        log(f"workload exited {child.returncode} without a result ({error})")
        return child.returncode or 1

    # The program's own trace (telemetry workload): balanced, loadable JSON.
    trace_events, trace_mb = 0, 0.0
    if report.get("program_trace"):
        path = report["program_trace"]
        trace_mb = os.path.getsize(path) / 1e6 if os.path.isfile(path) else 0.0
        trace_events, problem = check_program_trace(path)
        if problem is None and trace_events == 0:
            problem = "no events"
        if problem is not None:
            report["check_failures"].append(f"{args.workload}: program trace: {problem}")
            log(f"CHECK FAILED: program trace: {problem}")
            result["correct"] = False
    if args.trace == "1":
        result["metrics"]["obs.trace_mb"] = {"value": trace_mb, "unit": "MB"}
        result["metrics"]["obs.trace_events"] = {"value": trace_events, "unit": "count"}

    # The workload process is one more operation; it fails if it exits
    # non-zero after its work (a crash at teardown, for instance).
    result["attempted"] += 1
    if child.returncode != 0:
        log(f"workload exited {child.returncode} after reporting")
        result["failed"] += 1
    report["process_seconds"] = round(time.monotonic() - started, 3)
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
