"""Tests of the benchmark itself.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gibbscache as gc  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_smoke_run_through_the_command(name, trace):
    out = _command(
        "--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--size", "tiny"
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_tracing_leaves_trace_digests_unchanged(name):
    wl = workloads.WORKLOADS[name](ROOT, tiny=True)
    inputs = wl.setup()
    plain = bench.run_op(wl, inputs, 7)
    tracer = Tracer(gc)
    traced = bench.run_op(wl, inputs, 7, tracer)
    assert not plain.failed and not traced.failed
    assert traced.digest == plain.digest
    if wl.kind == "sim":
        assert tracer.stat("sim.run").calls == 1
        assert tracer.stat("engine.FastCore.step").calls == plain.slots
    else:
        # gibbs calls hit_rate through its own from-import binding.
        assert tracer.stat("model.hit_rate").calls > 0
    # Every binding is restored.
    assert not hasattr(gc.run, "__wrapped__")
    assert gc.gibbs.hit_rate is gc.model.hit_rate
    assert not hasattr(gc.gibbs.hit_rate, "__wrapped__")
    assert not hasattr(gc.engine.FastCore.step, "__wrapped__")


def test_an_observation_through_the_module_function_counts_once():
    tracer = Tracer(gc)
    tracer.install()
    try:
        gc.observe(gc.RateEstimates(), gc.RequestEvent(0.5, 1, frozenset({0})), 0.5)
    finally:
        tracer.remove()
    assert tracer.stat("traffic.observe").calls == 1
    wl = workloads.WORKLOADS["exact-3bs"](ROOT, tiny=True)
    op = workloads.OpResult(scaled_seconds=1.0)
    metrics = bench.per_layer(wl, tracer, tracer, [op], [op])
    assert metrics["traffic.observe_calls"] == 1


def test_class_methods_are_traced_and_restored():
    original = vars(gc.Placement)["from_columns"]
    tracer = Tracer(gc)
    tracer.install()
    try:
        assert isinstance(vars(gc.Placement)["from_columns"], classmethod)
        placement = gc.Placement.from_columns(2, ((1,), (2,)), 1)
    finally:
        tracer.remove()
    assert isinstance(placement, gc.Placement)
    assert tracer.stat("model.Placement.from_columns").calls == 1
    assert vars(gc.Placement)["from_columns"] is original


def _two_station_trace(last_window_time: float):
    data = json.loads((ROOT / "configs" / "two_station_line.json").read_text())
    data["sim"]["horizon"] = 12
    cfg = gc.build_config(data)
    key = ((2,), (1,))
    h = gc.hit_rate(cfg.topology, cfg.catalog, gc.Placement.from_columns(2, key, 1))
    trace = gc.SimTrace(
        horizon=12.0,
        n_windows=3,
        slot_spacing=1.0,
        seed=0,
        real_occ=[{key: 4.0}, {key: 4.0}, {key: last_window_time}],
        v_counts=[Counter({key: 4}) for _ in range(3)],
        hits=[3, 4, 5],
        misses=[1, 0, 0],
        h_integral=[4 * h, 4 * h, last_window_time * h],
        hit_rates={key: h},
        n_slots=12,
        beta_final=2.0,
        final_virtual=key,
        final_real=key,
    )
    return trace, cfg


def test_checks_reject_occupancy_short_of_the_horizon():
    complete, cfg = _two_station_trace(4.0)
    assert workloads.check_trace(complete, cfg) == []
    short, cfg = _two_station_trace(1.5)
    errors = workloads.check_trace(short, cfg)
    assert len(errors) == 1 and "real occupancy" in errors[0]


def test_checks_reject_a_wrong_memoized_hit_rate():
    trace, cfg = _two_station_trace(4.0)
    key = trace.final_real
    trace.hit_rates[key] += 1e-9
    assert any("hit rate" in e for e in workloads.check_trace(trace, cfg))


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _command(
        "--workload", "exact-3bs", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert out.returncode != 0
    assert not out.stdout.strip()
