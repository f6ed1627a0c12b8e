"""Tests of the benchmark itself, not of catcorr.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def bench_modules():
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracer
    import workloads

    return tracer, workloads


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_printed_with_units(workload):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    result = _result(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, unit in units.items():
        assert f" {unit}" in next(line for line in done.stdout.splitlines() if f" {name} " in line)
    for name in ("max_abs_err", "failed_frac"):
        assert any(line.split()[:1] == [name] for line in done.stdout.splitlines())


def test_per_layer_metrics_printed_with_units():
    result = _result(_run("--workload", "closed_sweep", "--seed", "7", "--seconds", "1", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] == 150


def test_injected_check_failure_is_counted_not_fatal():
    done = _run("--workload", "closed_sweep", "--seed", "7", "--seconds", "1",
                "--trace", "0", "--inject-check-failure", "10")
    result = _result(done)
    assert not result["correct"]
    assert result["failed"] > 0 and 10 * result["failed"] == result["attempted"]
    assert "injected check failure" in done.stdout


def test_traced_results_match_untraced(bench_modules, tmp_path):
    tracer, workloads = bench_modules
    import catcorr
    import catcorr.correlations

    original = catcorr.correlations.bloch_matrix
    for cls in workloads.WORKLOADS.values():
        workload = cls(5, str(tmp_path))
        items = range(0, len(workload.inputs), len(workload.inputs) // 6)
        plain = [workload.run(i) for i in items]
        with tracer.Tracer() as active:
            traced = [workload.run(i) for i in items]
        assert traced == plain, cls.name
        assert active.spans and {span[0] for span in active.spans} <= set(tracer.SPAN_NAMES)
    assert catcorr.correlations.bloch_matrix is original
    assert "__post_init__" in vars(catcorr.TwoQubitState)


def test_tracer_wraps_every_namespace(bench_modules):
    tracer, _ = bench_modules
    import catcorr
    import catcorr.dynamics

    state = catcorr.reduced_rho12(catcorr.SuperpositionSpec(0.5, catcorr.Parity.EVEN, 4))
    with tracer.Tracer() as active:
        catcorr.dynamics.discord_t(
            catcorr.SuperpositionSpec(0.5, catcorr.Parity.EVEN, 4), catcorr.DephasingChannel(1.0, 0.1)
        )
        catcorr.von_neumann_entropy(state)  # isinstance still sees TwoQubitState
    calls, _ = tracer.self_times(active.spans)
    assert calls["dynamics.discord_t"] == 1
    assert calls["dynamics.DephasingChannel"] == 1
    assert calls["correlations.discord_brute_force"] == 1
    assert calls["correlations.von_neumann_entropy"] == 4
    assert calls["states.bloch_matrix"] == 1 and calls["states.reduced_rho12"] == 1


def test_self_time_subtracts_direct_children(bench_modules):
    tracer, _ = bench_modules
    spans = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0), ("c", 5.0, 6.0, 0, 0)]
    calls, seconds = tracer.self_times(spans)
    assert calls == {"a": 1, "b": 1, "c": 2}
    assert seconds == {"a": 6.0, "b": 2.0, "c": 2.0}


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "oracle_sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
