"""Self-test of the benchmark harness, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.faults import DELIVERY_CONSUMER, FaultInjector, always, raise_fault  # noqa: E402

TINY = 0.15  # seconds of --seconds: a handful of chunks


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_clean(name, tmp_path):
    result = harness.run_workload(name, 1, TINY, out_dir=str(tmp_path))
    assert result["error_rate"] == 0, result
    assert result["attempted"] > 0
    assert result["samples"] > 0
    assert result["throughput_eps"] > 0 and result["setup_s"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_dropped_output_is_an_error(name, tmp_path):
    result = harness.run_workload(name, 1, TINY, out_dir=str(tmp_path), drop_delivery_at=1)
    assert result["failed"] > 0 and result["error_rate"] > 0


def test_consumer_fault_is_an_error(tmp_path):
    """Deliveries that the consumer failpoint fails past their retries
    are dead-lettered, so the delivered alerts miss them."""
    injector = FaultInjector(seed=1)
    injector.arm(DELIVERY_CONSUMER, raise_fault("dropped"), policy=always(), max_fires=20)
    result = harness.run_workload(
        "order_flow", 1, TINY, out_dir=str(tmp_path), faults=injector
    )
    assert result["failed"] > 0 and result["error_rate"] > 0


def test_traced_run_attributes_time(tmp_path):
    result = harness.run_workload("order_flow", 1, TINY, mode="trace", out_dir=str(tmp_path))
    layers = result["layers"]
    assert set(layers) == set(harness.PER_LAYER)
    assert layers["trace.attributed_share"] > 0.5
    assert layers["rules.evaluate.self_us"] > 0
    assert os.path.exists(tmp_path / "spans-order_flow-1.jsonl")


def test_normalisation_keeps_a_real_slowdown(tmp_path):
    """A busy-wait per event added in the driver must show up as added
    reference time per event, not be absorbed by the rescaling."""
    busy_us = 40.0
    base = harness.run_workload("sensor_rollup", 2, 0.5, out_dir=str(tmp_path))
    slow = harness.run_workload(
        "sensor_rollup", 2, 0.5, out_dir=str(tmp_path), busy_us_per_event=busy_us
    )
    per_event = base["timed_s"] / base["events"]
    factor = slow["timed_s"] / slow["timed_wall_s"]  # reference s per wall s
    expected = 1.0 / (per_event + busy_us * 1e-6 * factor)
    assert slow["throughput_eps"] == pytest.approx(expected, rel=0.3)
    assert slow["throughput_eps"] < 0.8 * base["throughput_eps"]


def test_refuses_under_settrace(tmp_path):
    sys.settrace(lambda *args: None)
    try:
        with pytest.raises(RuntimeError):
            harness.run_workload("sensor_rollup", 1, TINY, out_dir=str(tmp_path))
    finally:
        sys.settrace(None)


def test_fails_without_the_program(tmp_path):
    """Run from a directory holding only the benchmark: no result line,
    non-zero exit."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "order_flow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
