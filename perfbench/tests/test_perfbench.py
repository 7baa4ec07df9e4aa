"""The benchmark's own tests.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import driver, layers, shims, workloads  # noqa: E402
from repro.obs.clock import FakeClock  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The workload-specific names each workload prints beside the generic
#: end-to-end metrics (tail names carry the percentile the sample allows).
NAMED = {
    "serve_hot": ("setup_s", "serve_p50_ms", "serve_capacity_rps",
                  "failed_frac", "restart_to_serve_ms", "peak_rss_mb"),
    "serve_churn": ("setup_s", "serve_p50_ms", "serve_capacity_rps",
                    "failed_frac", "ingest_lag_p50_ms",
                    "ingest_capacity_eps", "recover_to_serve_ms",
                    "peak_rss_mb"),
    "retrain": ("setup_s", "train_step_ms", "train_epoch_s", "failed_frac",
                "restart_to_first_epoch_ms", "peak_rss_mb"),
}


def _run(workload: str, trace: int) -> list:
    """A tiny run: 60 shops, two seconds, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--shops", "60"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return [json.loads(line) for line in out.stdout.strip().splitlines()]


def test_benchmark_json_names_every_metric_the_runs_print():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == layers.END_TO_END_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert list(per_layer) == layers.layer_names()
    assert all(unit == layers.layer_unit(n) for n, unit in per_layer.items())
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(
        workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(NAMED))
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    lines = _run(workload, trace=0)
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"]) and printed["value"] > 0
    named = next(line["named"] for line in lines if "named" in line)
    assert set(NAMED[workload]) <= set(named)
    run = next(line["run"] for line in lines if "run" in line)
    for key in ("cpu_count", "numpy", "blas", "blas_threads", "python",
                "git_sha", "seed", "driver.late_p99_ms"):
        assert key in run

    traced = _run(workload, trace=1)[-1]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(
        traced["metrics"])
    for metric in BENCHMARK["per_layer"]:
        printed = traced["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert math.isfinite(printed["value"])


class _Request:
    def __init__(self):
        self.done = False
        self.completed_at = math.nan
        self.response = None
        self.error = None


def test_open_loop_charges_a_stall_to_later_requests():
    """A 50 ms stall on request 3 delays every request due during it."""
    clock = FakeClock()
    parked = []

    def submit(i):
        request = _Request()
        if i == 3:
            clock.advance(0.050)          # the injected stall
        parked.append(request)
        return request

    def poll():
        if not parked:
            return False
        clock.advance(0.001)              # one millisecond of service
        for request in parked:
            request.done = True
            request.completed_at = clock.now()
        parked.clear()
        return True

    schedule = driver.Schedule.of(0.010 * np.arange(10), driver.REQUEST)
    result = driver.run_open_loop(schedule, submit, poll, clock.now,
                                  clock.advance)
    latency = result.latency(driver.REQUEST)
    assert latency[2] == pytest.approx(0.001)
    # Requests 4..7 were due while request 3 stalled the only thread:
    # each is charged the wait from its due time, not from its submit.
    for i in (4, 5, 6, 7):
        assert latency[i] > 0.050 - 0.010 * (i - 3)
        assert result.submitted[i] > result.due[i]
    assert latency[9] == pytest.approx(0.001)
    assert max(result.lateness) >= 0.040


def test_shims_restore_the_original_callables():
    from repro.serving import batching, gateway

    before = {(m, o, a): vars(shims._owner(m, o)).get(a)
              for m, o, a, _ in shims.TARGETS}
    recorder = shims.SpanRecorder(FakeClock().now)
    with pytest.raises(RuntimeError):
        with shims.Shims(recorder):
            assert shims.installed_shims()
            with pytest.raises(RuntimeError):
                shims.assert_no_shims()
            raise RuntimeError("leave the block by an exception")
    after = {(m, o, a): vars(shims._owner(m, o)).get(a)
             for m, o, a, _ in shims.TARGETS}
    assert after == before
    assert shims.installed_shims() == []
    shims.assert_no_shims()
    assert gateway.build_disjoint_batch is batching.build_disjoint_batch


def test_self_time_subtracts_children():
    clock = FakeClock()
    recorder = shims.SpanRecorder(clock.now)
    with recorder.span("driver.request"):
        clock.advance(0.25)
        with recorder.span("root"):
            clock.advance(1.0)
            with recorder.span("child"):
                clock.advance(2.0)
            clock.advance(0.5)
    table = recorder.self_time_table(unspanned=0.125)
    assert table["root"]["self_ms"] == pytest.approx(1500.0)
    assert table["child"]["self_ms"] == pytest.approx(2000.0)
    assert recorder.root_seconds() == pytest.approx(3.75)
    # Only program-layer spans count as covered; the driver's own self
    # time and the unspanned time are unattributed.
    assert recorder.layer_seconds() == pytest.approx(3.5)
    assert "driver.request" not in table
    assert table["unattributed"]["self_ms"] == pytest.approx(375.0)
    assert sum(row["self_ms"] for row in table.values()) == pytest.approx(
        3875.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert driver.tail_percentile(5000) == 99.0
    assert driver.tail_percentile(100) == 90.0
    for count in (11, 37, 240, 999):
        pct = driver.tail_percentile(count)
        assert count * (100 - pct) / 100 >= 10
