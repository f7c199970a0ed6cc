"""One benchmark process: set up a workload, run it, check it, report.

``run.py`` starts this in a fresh interpreter (fixed ``PYTHONHASHSEED``)
once per measurement.  Set-up is timed from interpreter start to the
first timed event, in reference seconds: module imports (in segments of
at least ``IMPORT_SEGMENT_S``), each set-up step and each warm-up chunk
are segments with a kernel probe after each.  The timed phase runs a
fixed number of chunks, each followed by a probe.
"""

from __future__ import annotations

import gc
import importlib.abc
import importlib.machinery
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from typing import Any

from perfbench.refclock import (
    Timeline,
    block_percentile,
    kernel_seconds_all_cores,
    percentile,
    spread,
)
from perfbench.tracer import Tracer
from perfbench.workloads import ratio

#: Every per-layer metric of the traced run: name -> (unit, better).
#: Every traced run reports all of them (0 where the workload bypasses
#: the layer); run.py adds ``trace.overhead`` and the ``ref.*`` pair.
PER_LAYER = {
    "db.execute.self_us": ("us", "lower"),
    "db.statement_cache.hit_ratio": ("ratio", "higher"),
    "db.wal.flush_us": ("us", "lower"),
    "db.wal.commits_per_flush": ("ratio", "higher"),
    "db.wal.bytes_per_event": ("B", "lower"),
    "db.query.cqn_us": ("us", "lower"),
    "db.query.dashboard_us": ("us", "lower"),
    "db.vector.fast_path_ratio": ("ratio", "higher"),
    "capture.trigger.events_per_statement": ("ratio", "higher"),
    "capture.cqn.reevaluations_per_commit": ("ratio", "lower"),
    "capture.cqn.notifications_per_reevaluation": ("ratio", "higher"),
    "rules.evaluate.self_us": ("us", "lower"),
    "rules.conditions_per_event": ("ratio", "lower"),
    "rules.matches_per_event": ("ratio", "higher"),
    "queues.publish_us": ("us", "lower"),
    "queues.wait_ms.p50": ("ms", "lower"),
    "queues.wait_ms.p99": ("ms", "lower"),
    "queues.propagation.pump_us": ("us", "lower"),
    "queues.propagation.forwarded_per_pump": ("ratio", "higher"),
    "pubsub.publish_us": ("us", "lower"),
    "pubsub.delivery.process_batch_us": ("us", "lower"),
    "pubsub.delivery.redelivered": ("count", "lower"),
    "cq.window.push_self_us": ("us", "lower"),
    "cq.view.flush_us": ("us", "lower"),
    "cq.aggregate.emit_us": ("us", "lower"),
    "cq.retractions_per_output": ("ratio", "lower"),
    "cq.late_dropped": ("count", "lower"),
    "cq.view.deltas_per_batch": ("ratio", "higher"),
    "cq.view.groups": ("count", "lower"),
    "shard.publish_many_us": ("us", "lower"),
    "shard.consume_batch_us": ("us", "lower"),
    "shard.ack_batch_us": ("us", "lower"),
    "shard.requests_per_msg": ("ratio", "lower"),
    "trace.attributed_share": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "ref.kernel_us": ("us", "lower"),
    "ref.kernel_iqr": ("ratio", "lower"),
}


#: An import segment is cut (and a probe run) once it is this long, so
#: a probe sits beside every few milliseconds of import work.
IMPORT_SEGMENT_S = 0.005


class _CutLoader:
    """Loader proxy: a timeline cut before and after a module runs, once
    the open segment is ``IMPORT_SEGMENT_S`` long."""

    def __init__(self, loader: Any, timeline: Timeline) -> None:
        self._loader = loader
        self._timeline = timeline

    def create_module(self, spec: Any) -> Any:
        return self._loader.create_module(spec)

    def exec_module(self, module: Any) -> None:
        self._timeline.cut_after(IMPORT_SEGMENT_S)
        try:
            self._loader.exec_module(module)
        finally:
            module.__loader__ = self._loader
            if module.__spec__ is not None:
                module.__spec__.loader = self._loader
            self._timeline.cut_after(IMPORT_SEGMENT_S)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._loader, name)


class _CutFinder(importlib.abc.MetaPathFinder):
    def __init__(self, timeline: Timeline) -> None:
        self.timeline = timeline

    def find_spec(self, name: str, path: Any, target: Any = None) -> Any:
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is not None and hasattr(spec.loader, "exec_module"):
            spec.loader = _CutLoader(spec.loader, self.timeline)
        return spec


def import_with_cuts(timeline: Timeline, module: str) -> Any:
    finder = _CutFinder(timeline)
    sys.meta_path.insert(0, finder)
    try:
        return importlib.import_module(module)
    finally:
        sys.meta_path.remove(finder)


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    mode: str = "measure",
    spawned: float | None = None,
    out_dir: str = ".",
    faults: Any = None,
    busy_us_per_event: float = 0.0,
    drop_delivery_at: int | None = None,
) -> dict[str, Any]:
    """Set up and (unless ``mode == "setup"``) run one workload.

    ``mode`` is ``"measure"`` (untraced), ``"trace"`` (layer spans on)
    or ``"setup"`` (set-up only).  ``faults``, ``busy_us_per_event`` and
    ``drop_delivery_at`` exist for the benchmark's self-test.
    """
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise RuntimeError("refusing to measure under a tracer or profiler")
    timeline = Timeline(start=spawned)
    timeline.cut()  # interpreter start-up (or call entry) to here
    workload_cls = import_with_cuts(timeline, f"perfbench.workloads.{name}").WORKLOAD
    if workload_cls.multi_process:
        timeline.probe = kernel_seconds_all_cores
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    tracer = Tracer() if mode == "trace" else None
    workload = workload_cls(seed, scratch, faults=faults, tracer=tracer)
    try:
        for step in workload.setup_steps():
            step()
            timeline.cut()
        for _ in range(workload.warmup_chunks):
            batch = workload.make_chunk()
            timeline.restart()
            workload.run_chunk(batch)
            timeline.cut()
        setup_segments = len(timeline.walls)
        result: dict[str, Any] = {
            "setup_s": timeline.reference(0, setup_segments),
            "setup_wall_s": timeline.wall(0, setup_segments),
        }
        if mode == "setup":
            return result
        result.update(
            _timed_phase(
                workload, timeline, seconds, tracer,
                busy_us_per_event=busy_us_per_event,
                drop_delivery_at=drop_delivery_at,
            )
        )
        attempted, failed = workload.check()
        result.update(
            attempted=attempted,
            failed=failed,
            error_rate=ratio(failed, attempted),
        )
        if tracer is not None:
            tracer.dump(os.path.join(out_dir, f"spans-{name}-{seed}.jsonl"))
    finally:
        workload.close()
        for entry in os.listdir(scratch):
            os.remove(os.path.join(scratch, entry))
        os.rmdir(scratch)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (own + children) / 1024.0
    kernels = timeline.kernels
    result["kernel_us"] = statistics.median(kernels) * 1e6
    result["kernel_iqr"] = spread(kernels)
    return result


def _timed_phase(
    workload: Any,
    timeline: Timeline,
    seconds: float,
    tracer: Tracer | None,
    *,
    busy_us_per_event: float,
    drop_delivery_at: int | None,
) -> dict[str, Any]:
    for samples in workload.samples.values():
        samples.clear()
    if tracer is not None:
        tracer.take()
    before = workload.counters()
    gc.collect()
    chunks = max(1, round(seconds * workload.chunks_per_second))
    first = len(timeline.walls)
    marks: list[dict[str, int]] = []
    traced_chunks: list[tuple[dict[str, float], dict[str, int], float]] = []
    events = 0
    for index in range(chunks):
        batch = workload.make_chunk()
        if index == drop_delivery_at:
            workload.drop_delivery()
        marks.append({k: len(v) for k, v in workload.samples.items()})
        timeline.restart()
        done = workload.run_chunk(batch)
        if busy_us_per_event:
            _spin(done * busy_us_per_event * 1e-6)
        timeline.cut()
        events += done
        if tracer is not None:
            traced_chunks.append(tracer.take())
    after = workload.counters()
    factors = timeline.factors()[first:]
    marks.append({k: len(v) for k, v in workload.samples.items()})

    def rescaled(name: str) -> list[float]:
        values = workload.samples[name]
        out: list[float] = []
        for i, factor in enumerate(factors):
            out.extend(v * factor for v in values[marks[i][name] : marks[i + 1][name]])
        return out

    latencies = rescaled("latency")
    raw = workload.samples["latency"]
    ref_time = timeline.reference(first)
    wall_time = timeline.wall(first)
    result: dict[str, Any] = {
        "events": events,
        "chunks": chunks,
        "samples": len(latencies),
        "timed_s": ref_time,
        "timed_wall_s": wall_time,
        "throughput_eps": events / ref_time,
        "throughput_wall_eps": events / wall_time,
        "latency_p50_ms": block_percentile(latencies, 50) * 1e3,
        "latency_p99_ms": block_percentile(latencies, 99) * 1e3,
        "latency_wall_p50_ms": block_percentile(raw, 50) * 1e3,
        "latency_wall_p99_ms": block_percentile(raw, 99) * 1e3,
    }
    if tracer is None:
        return result

    self_ref: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered = 0.0
    for factor, (self_time, counts, top_level) in zip(factors, traced_chunks):
        for span, seconds_spent in self_time.items():
            self_ref[span] = self_ref.get(span, 0.0) + seconds_spent * factor
        for span, count in counts.items():
            calls[span] = calls.get(span, 0) + count
        covered += top_level
    delta = {key: after[key] - before.get(key, 0) for key in after}
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update(
        workload.layer_metrics(
            lambda span: self_ref.get(span, 0.0) / events * 1e6,
            calls, delta, events,
        )
    )
    waits = rescaled("queues.wait")
    if waits:
        layers["queues.wait_ms.p50"] = percentile(waits, 50) * 1e3
        layers["queues.wait_ms.p99"] = percentile(waits, 99) * 1e3
    layers["trace.attributed_share"] = covered / wall_time
    result["layers"] = layers
    result["spans"] = len(tracer.spans)
    return result


def main(argv: list[str]) -> int:
    """Child entry: ``run.py --child <mode> ...``; prints one JSON line."""
    options = json.loads(argv[0])
    result = run_workload(**options)
    print(json.dumps(result))
    return 0
