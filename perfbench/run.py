#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

Run from the repository root. The first run configures and builds
perfbench/ (the ufc library from src/ plus the ufc_perfbench program) into
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. Each run prints its full record (metrics, checks, provenance) on
one line and, as the last line of stdout, the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The exit code is non-zero when the build fails, the run
fails, or any output check fails. --out appends the full record to a
JSON-lines file that perfbench/compare.py reads.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found")
    return json.loads(spec_path.read_text())


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build():
    """Configures (once) and builds ufc_perfbench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources (src/CMakeLists.txt) next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return out / "ufc_perfbench"


def git_sha():
    if (ROOT / ".git").exists() and shutil.which("git") is not None:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    return "unknown"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (record or None, exit code)."""
    run_dir = build_dir() / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               # Relative, so the Unix socket path stays short.
               "--socket-dir", os.path.relpath(run_dir, ROOT)]
    if trace:
        # One file per workload: the latest traced run's span tree.
        command += ["--trace-out", str(run_dir / f"trace-{workload}.json")]
    # Own process group: on a timeout the whole group, forked fleet workers
    # included, is killed and reaped.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return None, 1
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), process.returncode
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: {workload} printed no record", file=sys.stderr)
        return None, process.returncode or 1


def result_line(spec, record, code, trace):
    """The contract line: the mode's BENCHMARK.json metrics, verified."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = record["metrics"]
    missing = [m["name"] for m in wanted
               if not isinstance(metrics.get(m["name"], {}).get("value"),
                                 (int, float))]
    if missing:
        print("perfbench: missing or non-finite metrics: " + ", ".join(missing),
              file=sys.stderr)
    failed_checks = [c["name"] for c in record["checks"] if not c["passed"]]
    if failed_checks:
        print("perfbench: failed checks: " + ", ".join(failed_checks),
              file=sys.stderr)
    correct = (code == 0 and not missing and not failed_checks
               and record["failed"] == 0)
    return {
        "correct": correct,
        "attempted": max(1, int(record["attempted"])),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted
                    if m["name"] not in missing},
    }


def print_table(record):
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{len(record['pass_seconds'])} passes, trace {record['trace']})")
    for name, metric in {**record["metrics"], **record["extra"]}.items():
        print(f"  {name:32s} {metric['value']!s:>24} {metric['unit']}")
    for check in record["checks"]:
        verdict = "ok" if check["passed"] else "FAILED"
        print(f"  check {check['name']:26s} {check['value']!s:>24} "
              f"<= {check['bound']}  {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append full records to this JSONL file")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(f"unknown workload {args.workload!r}; have {', '.join(names)}")
    seconds = args.seconds or spec["run_seconds"]
    binary = build()

    provenance = {"host_cores": os.cpu_count(), "git_sha": git_sha(),
                  "seed": args.seed}
    lines = []
    for workload in workloads:
        record, code = run_workload(binary, workload, args.seed, seconds,
                                    args.trace)
        if record is None:
            sys.exit(1)
        record.update(provenance)
        line = result_line(spec, record, code, args.trace)
        record["correct"] = line["correct"]
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps(record) + "\n")
        if len(workloads) > 1:
            print_table(record)
        print(json.dumps(record))
        lines.append(line)

    if len(lines) == 1:
        summary = lines[0]
    else:
        summary = {"correct": all(l["correct"] for l in lines),
                   "attempted": sum(l["attempted"] for l in lines),
                   "failed": sum(l["failed"] for l in lines),
                   "metrics": {f"{w}.{k}": v for w, l in zip(workloads, lines)
                               for k, v in l["metrics"].items()}}
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
