"""Runs one workload in its own fresh process and prints one JSON line.

Started by run.py, never by hand.  Modes:
  setup   set up once (import, model, inputs, warm-up op) and report its time
  timed   set up, then run ops for --seconds with tracing off
  traced  run a fixed op list traced, untraced, traced again, then the sweep
  selftest  show that a corrupted output and an injected abort count as failed
  record  print the reference summaries of the first --count ops
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")


# Machine-speed calibration.  On a shared host the same op runs up to
# 40% slower or faster from one moment to the next, on Python and NumPy
# code alike.  While an op runs, a timer signal every TICK_S times a
# fixed pure-Python loop; the op's time, minus the time spent in those
# probes, is rescaled to the speed at which the loop takes
# NOMINAL_PROBE_S (its median on the reference host, see README.md).
# The loop calls no library code, so no change to filterjet can move it.
PROBE_LOOPS = 2_000
NOMINAL_PROBE_S = 1.1e-4
TICK_S = 0.01


def probe() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i
    return time.perf_counter() - start


@contextlib.contextmanager
def measured():
    """Times the body; yields a dict that gets, on exit, its wall and CPU
    seconds with the probes taken out, and the speed relative to nominal."""
    samples = [probe() for _ in range(3)]
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        start = time.perf_counter()
        samples.append(probe())
        spent += time.perf_counter() - start

    out = {}
    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        yield out
    finally:
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)
        samples += [probe() for _ in range(3)]
        out["wall"] = wall - spent
        out["cpu"] = cpu - spent
        out["speed"] = NOMINAL_PROBE_S / statistics.median(samples)


def setup(name: str, seed: int):
    """Import the library from this checkout, build the workload, run the warm-up op.

    Returns the workload and the set-up time, raw and at nominal speed.
    NumPy is imported before the clock starts: its import (about 0.12 s,
    mostly loading OpenBLAS) is the same for every version of filterjet
    and was the noisiest part of set-up on a shared host.
    """
    import numpy  # noqa: F401

    with measured() as timing:
        sys.path.insert(0, SRC)
        import filterjet
        from workloads import WORKLOADS

        if not os.path.abspath(filterjet.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"filterjet was imported from {filterjet.__file__}, not from {SRC}")
        workload = WORKLOADS[name](seed)
        warm_up = workload.run(workload.make_input(-1))
        if not workload.verdict(warm_up):
            raise SystemExit(f"{name}: the warm-up op failed its own check")
    return workload, timing["wall"], timing["wall"] * timing["speed"]


def load_reference(workload) -> list:
    """Recorded summaries of this workload's ops, when the seed is the recorded one."""
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref["ops"].get(workload.name, []) if workload.seed == ref["seed"] else []


def attempt(workload, index, reference, tracer=None, corrupt=False) -> dict:
    """Run op `index` with its inputs made outside the timing; check its output."""
    inputs = workload.make_input(index)
    error = None
    with measured() as timing:
        try:
            output = tracer.run_op(index, workload.run, inputs) if tracer else workload.run(inputs)
        except Exception as err:  # an op that raises counts as failed; the run goes on
            error = f"{type(err).__name__}: {err}"
    if error is None:
        values = workload.summary(output)
        if corrupt:
            values = values + 1e-3 * (1.0 + abs(values))
        if not workload.verdict(output):
            error = "output failed its own check"
        elif index < len(reference) and not workload.tolerance.agrees(values, reference[index]):
            error = "output differs from the recorded reference"
    return {"index": index, "error": error, "steps": workload.steps(inputs) if error is None else 0, **timing}


def run_ops(workload, reference, count=None, seconds=None, tracer=None) -> list[dict]:
    """Ops 0, 1, ... until `count` are done, or until `seconds` have passed (at least one op)."""
    results = []
    start = time.perf_counter()
    while True:
        if count is not None and len(results) >= count:
            return results
        if count is None and results and time.perf_counter() - start >= seconds:
            return results
        results.append(attempt(workload, len(results), reference, tracer))


def summarize(results: list[dict]) -> dict:
    """Throughput and latency at nominal speed (raw wall times alongside)."""
    ok = [r for r in results if r["error"] is None]
    steps = sum(r["steps"] for r in ok)
    wall = sum(r["wall"] for r in results)
    scaled = sum(r["wall"] * r["speed"] for r in results)
    latencies = sorted(r["wall"] * r["speed"] * 1e3 for r in ok)
    out = {
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "steps": steps,
        "scaled_wall_s": scaled,
        "steps_per_s": steps / scaled if scaled else 0.0,
        "raw_steps_per_s": steps / wall if wall else 0.0,
        "mean_speed": scaled / wall if wall else 0.0,
        "cpu_s": sum(r["cpu"] for r in results),
        "op_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "raw_op_p50_ms": statistics.median(r["wall"] * 1e3 for r in ok) if ok else 0.0,
        "op_samples": len(latencies),
        "failures": [f"op {r['index']}: {r['error']}" for r in results if r["error"]][:5],
    }
    # The 90th percentile only where at least ten samples lie beyond it.
    if len(latencies) >= 100:
        out["op_p90_ms"] = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    return out


def timed(workload, seconds: float) -> dict:
    out = summarize(run_ops(workload, load_reference(workload), seconds=seconds))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["ops_failed_frac"] = out["failed"] / out["attempted"]
    return out


def traced(workload) -> dict:
    import sweep
    import tracing

    reference = load_reference(workload)
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    instrumentation.install()
    passes = []
    try:
        # Traced, untraced, traced: the untraced pass sits between the two
        # traced ones, so warm-up drift does not land in the overhead.
        for active in (True, False, True):
            tracer.active = active
            results = run_ops(workload, reference, count=workload.trace_ops, tracer=tracer if active else None)
            passes.append((summarize(results), tracer.take()))
    finally:
        tracer.active = False
        instrumentation.remove()
    (traced_a, spans_a), (untraced, _), (traced_b, spans_b) = passes
    traced_steps_per_s = (traced_a["steps"] + traced_b["steps"]) / (traced_a["scaled_wall_s"] + traced_b["scaled_wall_s"])
    counts_a, counts_b = tracing.call_counts(spans_a), tracing.call_counts(spans_b)
    mismatched = sorted(n for n in set(counts_a) | set(counts_b) if counts_a[n] != counts_b[n])

    metrics = tracing.layer_metrics(spans_a)
    metrics["trace.steps_per_s"] = traced_steps_per_s
    metrics["trace.untraced_steps_per_s"] = untraced["steps_per_s"]
    metrics["trace.overhead_frac"] = (
        1.0 - traced_steps_per_s / untraced["steps_per_s"] if untraced["steps_per_s"] else 0.0
    )
    metrics["trace.counts_identical"] = 0.0 if mismatched else 1.0
    metrics["trace.names_absent"] = len(instrumentation.absent())
    metrics["trace.spans"] = len(spans_a)
    metrics.update(sweep.sweep(workload.seed))

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{workload.seed}.json")
    tracing.write_spans(trace_path, spans_a, {"workload": workload.name, "seed": workload.seed})
    return {
        "attempted": sum(p["attempted"] for p, _ in passes),
        "failed": sum(p["failed"] for p, _ in passes),
        "failures": [f for p, _ in passes for f in p["failures"]][:5],
        "counts_mismatched": mismatched,
        "present": instrumentation.present,
        "trace_file": os.path.relpath(trace_path, ROOT),
        "metrics": metrics,
    }


def self_test(workload) -> dict:
    """Op 0 as is, op 1 with its output corrupted, op 2 with the predictive-mass guard forced to trip."""
    import filterjet.filtering as filtering

    reference = load_reference(workload)
    results = [attempt(workload, 0, reference), attempt(workload, 1, reference, corrupt=True)]
    floor = filtering.PREDICTIVE_FLOOR
    filtering.PREDICTIVE_FLOOR = float("inf")
    try:
        results.append(attempt(workload, 2, reference))
    finally:
        filtering.PREDICTIVE_FLOOR = floor
    errors = [r["error"] for r in results]
    passed = (
        errors[0] is None
        and errors[1] == "output differs from the recorded reference"
        and (errors[2] or "").startswith("PredictiveMassError")
    )
    failed = sum(e is not None for e in errors)
    return {"passed": passed, "errors": errors, "attempted": len(results), "failed": failed,
            "ops_failed_frac": failed / len(results)}


def run_context(workloads) -> dict:
    """Versions, BLAS threads, CPU and caches, and each workload's working set next to L2."""
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")}
    except OSError:
        libs = set()
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu_model)
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            caches[f"L{level}"] = size
    nproc = len(os.sched_getaffinity(0))
    l2 = caches.get("L2", "")
    l2_bytes = int(l2[:-1]) * 1024 if l2.endswith("K") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "cpu_model": cpu_model,
        "caches_per_core": caches,
        "working_set": {
            w.name: {
                "computed_bytes_per_step": w.working_set_bytes(),
                "over_l2": round(w.working_set_bytes() / l2_bytes, 4) if l2_bytes else None,
            }
            for w in workloads
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "traced", "selftest", "record"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--count", type=int, default=0)
    args = parser.parse_args()

    workload, raw_setup_s, setup_s = setup(args.workload, args.seed)
    if args.mode == "setup":
        out = {}
    elif args.mode == "timed":
        out = timed(workload, args.seconds)
        from workloads import WORKLOADS

        out["context"] = run_context([cls(args.seed) for cls in WORKLOADS.values()])
    elif args.mode == "traced":
        out = traced(workload)
    elif args.mode == "selftest":
        out = self_test(workload)
    else:
        out = {"ops": [workload.summary(workload.run(workload.make_input(i))).tolist()
                       for i in range(args.count)]}
    out["setup_s"] = setup_s
    out["raw_setup_s"] = raw_setup_s
    print(json.dumps(out))


if __name__ == "__main__":
    main()
