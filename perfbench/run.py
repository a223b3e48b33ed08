#!/usr/bin/env python3
"""The filterjet benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload loglik-large-grid --seed 3 --seconds 20 --trace 0
      one workload; the last line is a JSON object with the metrics that
      BENCHMARK.json lists (end_to_end with --trace 0, per_layer with --trace 1)
  python3 perfbench/run.py [--seed 0] [--seconds 20]
      every workload, untraced and then traced, as a table
  python3 perfbench/run.py --self-test
      shows that corrupted outputs and injected aborts count as failed ops
  python3 perfbench/run.py --record-reference
      records the reference op outputs of the default seed from this checkout

Each workload runs in fresh worker processes (perfbench/worker.py), so
set-up time, CPU time and peak memory belong to that workload alone.
This file itself imports nothing outside the standard library.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DEFAULT_SEED = 0
# Set-up runs per measurement: this many set-up-only workers plus the timed one.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170
# Ops recorded per workload for the reference: more than one default run holds.
REFERENCE_OPS = {
    "ergodicity-small-grid": 48,
    "loglik-large-grid": 192,
    "rml-online": 512,
    "fd-check-order3": 24,
}
class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker(workload: str, seed: int, mode: str, seconds: float = 0.0, count: int = 0) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", repr(seconds), "--count", str(count)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} {mode}: worker exceeded {WORKER_TIMEOUT_S} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode}: worker exited {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def measure_untraced(workload: str, seed: int, seconds: float) -> dict:
    setups = [worker(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    result = worker(workload, seed, "timed", seconds)
    setups.append(result)
    result["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    result["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    return result


def pick(values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def extra_lines(result: dict) -> list[str]:
    """End-to-end figures printed but not in BENCHMARK.json: they are zero
    on a healthy run or not defined on every workload."""
    if "op_p90_ms" in result:
        p90 = f"op_p90_ms = {result['op_p90_ms']:.6g} ms ({result['op_samples']} samples)"
    else:
        p90 = f"op_p90_ms: not reported, {result['op_samples']} ops leave fewer than ten beyond it"
    return [
        p90,
        f"ops_failed_frac = {result['ops_failed_frac']:.6g} ({result['failed']} of {result['attempted']} ops failed)",
    ]


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload; returns the result object, plus printable lines under "notes"."""
    if trace:
        result = worker(workload, seed, "traced")
        metrics = pick(result["metrics"], spec["per_layer"])
        notes = [f"wrapped {label}: {'present' if present else 'absent'}"
                 for label, present in result["present"].items()]
        notes.append(f"trace: spans written to {result['trace_file']}; overhead "
                     f"{result['metrics']['trace.overhead_frac']:.1%} of steps_per_s")
        if result["counts_mismatched"]:
            notes.append(f"trace: call counts differ between two same-seed passes: {result['counts_mismatched']}")
        correct = result["failed"] == 0 and not result["counts_mismatched"]
    else:
        result = measure_untraced(workload, seed, seconds)
        metrics = pick(result, spec["end_to_end"])
        notes = [f"context: git {git_sha()}"]
        notes += [f"context: {key} = {json.dumps(value)}" for key, value in result["context"].items()]
        notes += extra_lines(result)
        notes.append(f"raw (not rescaled to nominal speed): steps_per_s = {result['raw_steps_per_s']:.6g} 1/s, "
                     f"op_p50_ms = {result['raw_op_p50_ms']:.6g} ms, setup_s = {result['raw_setup_s']:.6g} s; "
                     f"mean machine speed {result['mean_speed']:.3f} of nominal")
        correct = result["failed"] == 0
    notes += [f"failed {failure}" for failure in result["failures"]]
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics, "notes": notes}


def run_all(spec: dict, seed: int, seconds: float) -> bool:
    table = {}
    for workload in spec_workloads(spec):
        print(f"== {workload}")
        for trace in (False, True):
            result = run_one(spec, workload, seed, seconds, trace)
            print("\n".join(result["notes"]))
            table.setdefault(workload, []).append(result)
    print()
    for workload, (untraced, traced) in table.items():
        print(f"{workload}: {untraced['attempted']} ops attempted, {untraced['failed']} failed, "
              f"correct={untraced['correct'] and traced['correct']}")
        for name, metric in untraced["metrics"].items():
            print(f"  {name:<18} {metric['value']:>14.6g} {metric['unit']}")
        for line in untraced["notes"]:
            if line.startswith(("op_p90_ms", "ops_failed_frac")):
                print(f"  {line}")
        layer = traced["metrics"]
        print(f"  trace overhead {layer['trace.overhead_frac']['value']:.1%}, "
              f"counts identical {bool(layer['trace.counts_identical']['value'])}, "
              f"names absent {layer['trace.names_absent']['value']}")
    return all(u["correct"] and t["correct"] for u, t in table.values())


def spec_workloads(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def self_test(spec: dict) -> bool:
    ok = True
    for workload in spec_workloads(spec):
        result = worker(workload, DEFAULT_SEED, "selftest")
        print(f"{workload}: {result['failed']} of {result['attempted']} ops failed "
              f"(ops_failed_frac {result['ops_failed_frac']:.3f}): {result['errors']}"
              f" -> {'pass' if result['passed'] else 'FAIL'}")
        ok = ok and result["passed"]
    return ok


def record_reference(spec: dict) -> None:
    ops = {w: worker(w, DEFAULT_SEED, "record", count=REFERENCE_OPS[w])["ops"] for w in spec_workloads(spec)}
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "ops": ops}, fh, indent=0)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "filterjet", "__init__.py")):
        print(f"error: no filterjet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = float(spec["run_seconds"] if args.seconds is None else args.seconds)
    try:
        if args.self_test:
            return 0 if self_test(spec) else 1
        if args.record_reference:
            record_reference(spec)
            return 0
        if args.workload == "all":
            return 0 if run_all(spec, args.seed, seconds) else 1
        if args.workload not in spec_workloads(spec):
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        result = run_one(spec, args.workload, args.seed, seconds, trace=bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print("\n".join(result.pop("notes")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
