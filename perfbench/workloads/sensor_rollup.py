"""sensor_rollup — stream analytics over late data.

A grid of 100 sensors reports every second; 30% of the readings are
delayed in transit by up to ``MAX_DELAY`` and delivered in arrival
order (the shape of ``repro.workloads.sensors.LateSensorGenerator``,
generated lazily here so the input never sits in memory as a list).
Readings go into a ``Stream``, then a keyed speculative
``TumblingWindow`` whose ``allowed_lateness`` covers the delay, then a
``WindowAggregate`` (avg, max, count), then a ``MaterializedView`` per
sensor.  No reading is dropped, so emissions minus retractions must
equal an in-order group-by of the readings.

Latency sample: one emitted result or retraction, from the start of
the push that caused it.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import Any

from perfbench.workloads import Workload, ratio
from repro.cq.aggregate import Avg, Count, Max, Sum, WindowAggregate
from repro.cq.ivm import MaterializedView
from repro.cq.stream import Stream
from repro.cq.window import OUTPUT_SPECULATIVE, TumblingWindow
from repro.events import KIND_RETRACTION, Event

SENSORS = 100
WINDOW = 10.0
MAX_DELAY = 19.5
ALLOWED_LATENESS = 20.0
DISORDER_RATE = 0.3


class SensorRollup(Workload):
    chunk_events = 500
    chunks_per_second = 48

    def __init__(self, seed: int, scratch: str, **kwargs: Any) -> None:
        super().__init__(seed, scratch, **kwargs)
        self.rng = random.Random(seed * 97 + 3)
        self._heap: list[tuple[float, int, int, float, float]] = []
        self._tick = 0
        self._seq = 0
        self.reference: dict[tuple[int, float], list[float]] = {}
        self.net: dict[tuple[str, float], tuple[float, float, int]] = {}
        self.emitted = 0
        self.retracted = 0
        self.unmatched = 0
        self.push_started = 0.0

    # -- input ----------------------------------------------------------------

    def _generate_tick(self) -> None:
        rng, t = self.rng, float(self._tick)
        for sensor in range(SENSORS):
            ts = t + sensor * 0.001
            value = round(10.0 + rng.gauss(0.0, 1.0) + (sensor % 7), 3)
            delay = rng.uniform(0.0, MAX_DELAY) if rng.random() < DISORDER_RATE else 0.0
            heapq.heappush(self._heap, (ts + delay, self._seq, sensor, ts, value))
            self._seq += 1
        self._tick += 1

    def make_chunk(self) -> list[Event]:
        events = []
        reference = self.reference
        for _ in range(self.chunk_events):
            while not self._heap or self._heap[0][0] > self._tick:
                self._generate_tick()
            _, _, sensor, ts, value = heapq.heappop(self._heap)
            ident = (sensor, math.floor(ts / WINDOW) * WINDOW)
            group = reference.get(ident)
            if group is None:
                reference[ident] = [value, value, 1]
            else:
                group[0] += value
                group[1] = max(group[1], value)
                group[2] += 1
            events.append(
                Event("sensor.reading", ts, {"sensor": f"s{sensor}", "value": value})
            )
        return events

    # -- set-up ---------------------------------------------------------------------

    def setup_steps(self):
        return [self._pipeline]

    def _pipeline(self) -> None:
        self.stream = Stream("readings")
        self.window = TumblingWindow(
            self.stream, WINDOW, key_field="sensor",
            allowed_lateness=ALLOWED_LATENESS, output_mode=OUTPUT_SPECULATIVE,
        )
        self.aggregate = WindowAggregate(
            self.window, "rollup",
            {"avg": ("value", Avg), "max": ("value", Max), "n": (None, Count)},
        )
        self.view = MaterializedView(
            "by_sensor", {"windows": (None, Count), "readings": ("n", Sum)},
            key_field="key",
        )
        self.patch(self.aggregate, "emit", "cq.aggregate.emit")
        self.patch(self.view, "flush", "cq.view.flush")
        self.view.bind_stream(self.aggregate, batch_size=64)
        self.aggregate.subscribe(self._on_result)
        self.push = self.traced("cq.window.push", self.stream.push)

    def _on_result(self, event: Event) -> None:
        self.samples["latency"].append(time.perf_counter() - self.push_started)
        if self.drop_next:
            self.drop_next = False
            return
        payload = event.payload
        ident = (payload["key"], payload["window_start"])
        result = (payload["avg"], payload["max"], payload["n"])
        # A retraction must cancel exactly the result emitted before it,
        # and a result may only follow a retraction of its predecessor.
        if event.kind == KIND_RETRACTION:
            self.retracted += 1
            self.unmatched += self.net.pop(ident, None) != result
        else:
            self.emitted += 1
            self.unmatched += ident in self.net
            self.net[ident] = result

    # -- run ------------------------------------------------------------------------

    def run_chunk(self, batch: list[Event]) -> int:
        push = self.push
        for event in batch:
            self.push_started = time.perf_counter()
            push(event)
        return len(batch)

    def counters(self) -> dict[str, float]:
        snapshot = self.view.snapshot()
        return {
            "emitted": self.emitted,
            "retracted": self.retracted,
            "deltas": snapshot.deltas_applied,
            "batches": snapshot.batches_folded,
            "late_dropped": self.window.late_dropped,
        }

    def layer_metrics(self, self_us, calls, delta, events):
        return {
            "cq.window.push_self_us": self_us("cq.window.push"),
            "cq.view.flush_us": self_us("cq.view.flush"),
            "cq.aggregate.emit_us": self_us("cq.aggregate.emit"),
            "cq.retractions_per_output": ratio(
                delta["retracted"], delta["emitted"] + delta["retracted"]
            ),
            "cq.late_dropped": delta["late_dropped"],
            "cq.view.deltas_per_batch": ratio(delta["deltas"], delta["batches"]),
            "cq.view.groups": len(self.view),
        }

    # -- correctness ------------------------------------------------------------------

    def check(self) -> tuple[int, int]:
        """Net results per (sensor, window) against an in-order
        group-by, and the per-sensor view against the same group-by;
        every retraction that cancels nothing counts as wrong."""
        self.window.flush()
        self.view.flush()
        failed = self.window.late_dropped + self.unmatched
        per_sensor: dict[str, list[int]] = {}
        keys = set(self.net)
        for (sensor, start), (total, top, count) in self.reference.items():
            ident = (f"s{sensor}", start)
            keys.add(ident)
            got = self.net.get(ident)
            if got is None or got[1] != top or got[2] != count or not math.isclose(
                got[0], total / count, rel_tol=1e-9
            ):
                failed += 1
            tally = per_sensor.setdefault(ident[0], [0, 0])
            tally[0] += 1
            tally[1] += count
        failed += len(keys) - len(self.reference)  # results with no readings
        for sensor, (windows, readings) in per_sensor.items():
            group = self.view.group(sensor) or {}
            failed += group.get("windows") != windows or group.get("readings") != readings
        return len(keys) + len(per_sensor) + self.retracted, failed


WORKLOAD = SensorRollup
