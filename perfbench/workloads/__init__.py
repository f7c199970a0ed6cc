"""The benchmark's workloads: each drives the program's public API.

A workload is driven in chunks.  ``make_chunk`` builds the next chunk's
input (untimed); ``run_chunk`` pushes it through the program and
returns with nothing in flight, appending one wall-clock sample to
``samples["latency"]`` per completed unit of work.  ``check`` compares
everything the program produced with an independent reference once the
run is over.
"""

from __future__ import annotations

from typing import Any, Callable

WORKLOADS = ("order_flow", "watchlist_cqn", "sensor_rollup", "fleet_queues")


class Workload:
    #: Input events per chunk (a chunk is at most ~50 ms of work).
    chunk_events = 64
    #: Timed chunks per second of ``--seconds``: the event count of a
    #: run is fixed by ``--seconds``, not by how fast the program is.
    chunks_per_second = 20
    #: Untimed chunks after set-up (caches fill, lazy set-up finishes).
    warmup_chunks = 4
    #: Work also runs in worker processes: probe every core, not just
    #: the one this thread is on.
    multi_process = False

    def __init__(
        self, seed: int, scratch: str, *, faults: Any = None, tracer: Any = None
    ) -> None:
        self.seed = seed
        self.scratch = scratch
        self.faults = faults
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {"latency": [], "queues.wait": []}
        self.drop_next = False

    def traced(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn if self.tracer is None else self.tracer.wrap(name, fn)

    def patch(self, obj: Any, attr: str, name: str) -> None:
        if self.tracer is not None:
            self.tracer.patch(obj, attr, name)

    def setup_steps(self) -> list[Callable[[], None]]:
        raise NotImplementedError

    def make_chunk(self) -> Any:
        raise NotImplementedError

    def run_chunk(self, batch: Any) -> int:
        """Run one chunk; returns the number of input events completed."""
        raise NotImplementedError

    def drop_delivery(self) -> None:
        """Make the benchmark's sink lose the next delivered output (the
        self-test's proof that ``check`` notices a missing result)."""
        self.drop_next = True

    def counters(self) -> dict[str, float]:
        """Program-side counters; the traced run reports their deltas
        over the timed phase."""
        return {}

    def layer_metrics(
        self,
        self_us: Callable[[str], float],
        calls: dict[str, int],
        delta: dict[str, float],
        events: int,
    ) -> dict[str, float]:
        """Per-layer metrics of the traced run: ``self_us(name)`` is the
        span's reference self time in µs per timed event."""
        return {}

    def check(self) -> tuple[int, int]:
        """(operations attempted, operations whose outcome is wrong)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
