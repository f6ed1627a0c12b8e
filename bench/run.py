"""catcorr benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload oracle_sweep --seed 0 --seconds 30 --trace 0

Each workload runs in fresh single-threaded interpreters that import
catcorr from `src/`.  With `--trace 0` the end-to-end metrics of
BENCHMARK.json are printed; with `--trace 1` the per-layer ones.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exits with a non-zero code, without
a result, when `src/catcorr` is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5  # interpreter starts per untraced run; setup_s is their median
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _load_spec() -> dict:
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONNOUSERSITE"] = "1"
    return env


def _git_revision(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _spawn(args, env: dict, deadline: float, extra: list[str]) -> dict:
    """Run one worker; returns its report with `setup_s` added."""
    command = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(Path.cwd() / ".bench_out"),
        "--inject-check-failure", str(args.inject_check_failure),
    ] + extra
    spawned = time.monotonic()
    done = subprocess.run(
        command,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: worker exited with code {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_wall_s"] = report["ready_monotonic"] - spawned
    report["setup_s"] = report["setup_wall_s"] * report["speed_scale"]
    return report


def main(argv=None) -> int:
    start = time.monotonic()
    spec = _load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-check-failure",
        type=int,
        default=0,
        metavar="EVERY",
        help="mark every EVERY-th item as failing its check (tests the checker)",
    )
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "catcorr" / "__init__.py").is_file():
        print(f"bench: no catcorr sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = _child_env(root)
    deadline = start + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            setups = [_spawn(args, env, deadline, ["--setup-only"]) for _ in range(SETUP_REPEATS - 1)]
        report = _spawn(args, env, deadline, [])
    except subprocess.TimeoutExpired:
        print(f"bench: worker did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 1
    setups.append(report)

    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = dict(report["metrics"], setup_s=statistics.median(r["setup_s"] for r in setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    tolerance = report["gaps"]["discord"][1]

    env_record = {
        "python": report["python"],
        "numpy": report["numpy"],
        "nproc": os.cpu_count(),
        "git": _git_revision(root),
        "seed": args.seed,
        "threads": {name: env[name] for name in THREAD_VARS},
    }
    print(f"catcorr bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env_record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        print(f"  traced passes {report['passes']}, {report['spans']} spans "
              f"written to {report['spans_path']}")
    else:
        wall = report["wall"]
        print(f"  latency samples {report['samples']} items (median of {report['passes']} passes each), "
              f"{report['samples_above_p90']} above p90; setup runs {len(setups)}")
        print(f"  unscaled wall clock: points_per_s {wall['points_per_s']:.6g} 1/s, "
              f"item_ms_p50 {wall['item_ms_p50']:.6g} ms, item_ms_p90 {wall['item_ms_p90']:.6g} ms, "
              f"setup_s {statistics.median(r['setup_wall_s'] for r in setups):.6g} s; "
              f"reference kernel {wall['reference_ms']:.4g} ms")
    print(f"  {'max_abs_err':<40} {report['max_abs_err']:.6g} bits (tolerance {tolerance:.0e})")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g} ratio ({failed}/{attempted} items)")
    for name, (gap, tol) in sorted(report["gaps"].items()):
        print(f"  check {name}: worst gap {gap:.3e} (tolerance {tol:.0e})")
    for reason in report["failures"]:
        print(f"  failure {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
