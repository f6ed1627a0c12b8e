"""One benchmark process: set up a workload, run it for a while, check it.

Started by `run.py` in a fresh interpreter with BLAS and OpenMP pinned to
one thread.  Prints one JSON object as its last line of output.

Both modes time a reference kernel next to every item; it tracks the
machine's speed, and every reported time is scaled to the speed at which
the kernel takes REFERENCE_MS.  Untraced mode runs passes over the
workload's items until `--seconds` have elapsed (at least one full pass),
timing each item, then checks every result.  Traced mode alternates an
untraced and a traced pass over the same items, requires the two to agree
bit for bit, and reports call counts and self time per traced function,
the fixed and per-direction cost of the measurement scan, and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
# Timings are reported at the speed where the reference kernel takes this
# long (its median on the 2-CPU machine the benchmark was tuned on), so that
# the speed of a shared machine, which drifts by +-25% within a minute,
# cancels out of the metrics.
REFERENCE_MS = 0.5
SPEED_WINDOW = 15  # items whose kernel times set one item's speed
SETUP_KERNEL_RUNS = 25  # kernel runs right after set-up that scale its time
CALIBRATION_GRIDS = ((64, 128), (181, 361))
CALIBRATION_STATES = 8
CALIBRATION_REPEATS = 3
_REFERENCE_X = np.linspace(0.01, 0.99, 2048)


def _require_checkout_catcorr() -> None:
    import catcorr

    source, src = Path(catcorr.__file__).resolve(), (ROOT / "src").resolve()
    if not source.is_relative_to(src):
        raise SystemExit(f"catcorr imported from {source}, not from {src}")


def _pass(workload, speed: list, tracer=None):
    """Run every item once, each after one run of the reference kernel.

    Returns the results and the item latencies in seconds, and appends the
    kernel times to `speed`.
    """
    clock = time.perf_counter
    run = workload.run if tracer is None else tracer.wrap("bench.item", workload.run)
    results, latencies = [], []
    for i in range(len(workload.inputs)):
        if tracer is not None:
            tracer.item = i
        t0 = clock()
        reference_kernel()
        t1 = clock()
        try:
            results.append(run(i))
        except Exception as exc:  # a failing item is counted, not fatal
            results.append(("raised", repr(exc)))
        latencies.append(clock() - t1)
        speed.append(t1 - t0)
    return results, latencies


def reference_kernel() -> float:
    """Fixed work that touches no catcorr code: numpy on a small array plus
    an interpreter loop of scalar math, the same mix as the program's.
    Timed before every item to follow the machine's speed.  The array is
    kept far below the allocator's mmap threshold, so the kernel's time
    does not depend on page faults."""
    x = _REFERENCE_X
    total = 0.0
    for _ in range(16):
        total += float(np.where(x > 0.5, np.sqrt(x * x + 0.5), -x * np.log2(x)).sum())
    for i in range(2000):
        total += math.sin(i * 1e-3) * math.sqrt(i + 1.0)
    return total


def _kernel_seconds(runs: int) -> float:
    """Median time of the reference kernel over `runs` back-to-back runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _normalized_ms(latencies: list[float], speed: list[float]) -> list[float]:
    """Item latencies in ms at the reference speed: each latency scaled by
    REFERENCE_MS over the median kernel time of the items around it."""
    half = SPEED_WINDOW // 2
    out = []
    for i, latency in enumerate(latencies):
        kernel = statistics.median(speed[max(0, i - half) : i + half + 1])
        out.append(latency * REFERENCE_MS / kernel)
    return out


def _merge(first: dict, failures: dict, results: list) -> None:
    """Keep the first result per item; flag a repeat that differs."""
    for i, value in enumerate(results):
        if isinstance(value, tuple) and value[:1] == ("raised",):
            failures.setdefault(i, f"raised {value[1]}")
        elif first.setdefault(i, value) != value:
            failures.setdefault(i, "result differs between repeats")


def _checked(workload, first: dict, failures: dict, inject_every: int):
    checked = workload.check(first)
    for i, reason in checked.failures.items():
        failures.setdefault(i, reason)
    if inject_every:
        for i in range(0, len(workload.inputs), inject_every):
            failures.setdefault(i, "injected check failure")
    return checked


def run_untraced(workload, seconds: float, inject_every: int) -> dict:
    first, failures, latencies, speed = {}, {}, [], []
    attempted_items = []
    start = time.perf_counter()
    while True:
        results, lat = _pass(workload, speed)
        _merge(first, failures, results)
        latencies += lat
        attempted_items += range(len(results))
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = _checked(workload, first, failures, inject_every)
    failed = sum(1 for i in attempted_items if i in failures)
    ms = _normalized_ms(latencies, speed)
    # An item's latency is the median over its passes, which keeps brief
    # stalls of the shared machine out of the percentiles taken across items.
    repeats = [[] for _ in workload.inputs]
    for i, t in zip(attempted_items, ms):
        repeats[i].append(t)
    item_ms = [statistics.median(r) for r in repeats]
    p90 = statistics.quantiles(item_ms, n=10)[8]
    wall_ms = [1e3 * t for t in latencies]
    return {
        "attempted": len(attempted_items),
        "failed": failed,
        "failures": _first_reasons(failures),
        "gaps": checked.gaps,
        "max_abs_err": checked.max_abs_err,
        "metrics": {
            "points_per_s": 1e3 * len(ms) / sum(ms),
            "item_ms_p50": statistics.median(item_ms),
            "item_ms_p90": p90,
            "peak_rss_mb": peak_rss_mb,
        },
        "wall": {
            "points_per_s": len(latencies) / sum(latencies),
            "item_ms_p50": statistics.median(wall_ms),
            "item_ms_p90": statistics.quantiles(wall_ms, n=10)[8],
            "reference_ms": 1e3 * statistics.median(speed),
        },
        "samples": len(item_ms),
        "samples_above_p90": sum(1 for t in item_ms if t > p90),
        "passes": len(ms) // len(item_ms),
    }


def run_traced(workload, seconds: float, inject_every: int, spans_path: Path) -> dict:
    from tracer import SPAN_NAMES, Tracer, self_times

    first, failures = {}, {}
    calls = {name: 0 for name in SPAN_NAMES}
    self_s = {name: 0.0 for name in SPAN_NAMES}
    plain_s = traced_s = 0.0
    passes = 0
    tracer = Tracer()
    clock = time.perf_counter
    start = clock()
    while True:
        plain, latencies = _pass(workload, [])
        plain_s += sum(latencies)
        tracer.spans.clear()  # memory holds one pass; the last one is written out
        speed = []
        with tracer:
            traced, latencies = _pass(workload, speed, tracer)
        traced_s += sum(latencies)
        passes += 1
        scale = REFERENCE_MS / (1e3 * statistics.median(speed))
        pass_calls, pass_self_s = self_times(tracer.spans)
        for name in SPAN_NAMES:
            calls[name] += pass_calls.get(name, 0)
            self_s[name] += pass_self_s.get(name, 0.0) * scale
        _merge(first, failures, plain)
        for i, (a, b) in enumerate(zip(plain, traced)):
            if a != b:
                failures.setdefault(i, "traced result differs from untraced")
        if clock() - start >= seconds:
            break
    checked = _checked(workload, first, failures, inject_every)
    attempted = 2 * passes * len(workload.inputs)
    failed = 2 * passes * sum(1 for i in range(len(workload.inputs)) if i in failures)

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name] / passes
        metrics[f"{name}.self_s"] = self_s[name] / passes
    metrics.update(_scan_split(workload))
    metrics["tracing_overhead_frac"] = traced_s / plain_s - 1.0
    _write_spans(spans_path, tracer.spans)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": _first_reasons(failures),
        "gaps": checked.gaps,
        "max_abs_err": checked.max_abs_err,
        "metrics": metrics,
        "passes": passes,
        "spans": len(tracer.spans),
        "spans_path": str(spans_path.relative_to(ROOT)),
    }


def _scan_split(workload) -> dict:
    """Fit scan time = fixed + per_direction * (n_theta * n_phi) from the
    median scan time of the workload's own states on the floor and the
    default grid, at the reference speed."""
    import catcorr

    states = workload.scan_states(CALIBRATION_STATES)
    for grid in CALIBRATION_GRIDS:
        catcorr.discord_brute_force(states[0], grid=grid)  # fills the grid cache
    times = {grid: [] for grid in CALIBRATION_GRIDS}
    speed = []
    for _ in range(CALIBRATION_REPEATS):
        for state in states:
            for grid in CALIBRATION_GRIDS:
                speed.append(_kernel_seconds(1))
                t0 = time.perf_counter()
                catcorr.discord_brute_force(state, grid=grid)
                times[grid].append(time.perf_counter() - t0)
    scale = REFERENCE_MS / (1e3 * statistics.median(speed))
    (small, t_small), (large, t_large) = (
        (g[0] * g[1], scale * statistics.median(times[g])) for g in CALIBRATION_GRIDS
    )
    per_direction = (t_large - t_small) / (large - small)
    return {
        "scan.per_direction_ns": per_direction * 1e9,
        "scan.fixed_ms": (t_small - per_direction * small) * 1e3,
    }


def _write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name,start_s,end_s,parent,item\n")
        for name, start, end, parent, item in spans:
            fh.write(f"{name},{start:.9f},{end:.9f},{parent},{item}\n")


def _first_reasons(failures: dict, limit: int = 5) -> list[str]:
    return [f"item {i}: {failures[i]}" for i in sorted(failures)[:limit]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inject-check-failure", type=int, default=0, metavar="EVERY")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    _require_checkout_catcorr()
    from workloads import WORKLOADS

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.run(0)  # warm-up: fills the direction-grid cache
        ready = time.monotonic()
        speed_scale = REFERENCE_MS / (1e3 * _kernel_seconds(SETUP_KERNEL_RUNS))
        if args.setup_only:
            print(json.dumps({"ready_monotonic": ready, "speed_scale": speed_scale}))
            return 0
        if args.trace:
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.csv"
            report = run_traced(workload, args.seconds, args.inject_check_failure, spans_path)
        else:
            report = run_untraced(workload, args.seconds, args.inject_check_failure)
    report["ready_monotonic"] = ready
    report["speed_scale"] = speed_scale
    report["python"] = platform.python_version()
    report["numpy"] = np.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
