"""fleet_queues — the sharded queue layer across worker processes.

Two forked shard workers (one per core), in-memory WALs, no replicas
and no supervisor thread.  The driver publishes with ``publish_many``
across 8 queues (4 per shard), then drains each queue with
``consume_batch`` and ``ack_batch``.

Latency sample: one batch round trip (one ``publish_many``,
``consume_batch`` or ``ack_batch`` call).
"""

from __future__ import annotations

import random
import time
from typing import Any

from perfbench.workloads import Workload, ratio
from repro.queues.message import Message
from repro.shard import ShardCoordinator, ShardedQueueBroker

SHARDS = 2
QUEUES_PER_SHARD = 4
PER_QUEUE = 24  # messages per queue per chunk


class FleetQueues(Workload):
    chunk_events = SHARDS * QUEUES_PER_SHARD * PER_QUEUE
    multi_process = True
    chunks_per_second = 32

    def __init__(self, seed: int, scratch: str, **kwargs: Any) -> None:
        super().__init__(seed, scratch, **kwargs)
        self.rng = random.Random(seed * 13 + 7)
        self._seq = 0
        self.coordinator: ShardCoordinator | None = None
        self.published: dict[str, list[int]] = {}
        self.consumed: dict[str, list[int]] = {}
        self.acked = 0
        self.sends = 0

    def make_chunk(self) -> list[tuple[str, Message]]:
        entries = []
        for _ in range(PER_QUEUE):
            for name in self.queues:
                entries.append((name, Message(payload={"seq": self._seq, "v": self.rng.random()})))
                self.published[name].append(self._seq)
                self._seq += 1
        return entries

    # -- set-up -------------------------------------------------------------------

    def setup_steps(self):
        return [self._fleet, self._queues]

    def _fleet(self) -> None:
        self.coordinator = ShardCoordinator(SHARDS, replication_factor=0)
        self.broker = ShardedQueueBroker(self.coordinator)
        if self.tracer is not None:
            for handle in self.coordinator.workers.values():
                handle.send = self._counted(handle.send)
        self.publish_many = self.traced("shard.publish_many", self.broker.publish_many)
        self.consume_batch = self.traced("shard.consume_batch", self.broker.consume_batch)
        self.ack_batch = self.traced("shard.ack_batch", self.broker.ack_batch)

    def _counted(self, send: Any) -> Any:
        """Count request frames (``WorkerHandle.send``) in the traced run."""

        def counted(*args: Any, **kwargs: Any) -> Any:
            self.sends += 1
            return send(*args, **kwargs)

        return counted

    def _queues(self) -> None:
        chosen: dict[int, list[str]] = {shard: [] for shard in range(SHARDS)}
        index = 0
        while any(len(names) < QUEUES_PER_SHARD for names in chosen.values()):
            name = f"fleet_{index}"
            index += 1
            names = chosen[self.coordinator.shard_for(name)]
            if len(names) < QUEUES_PER_SHARD:
                names.append(name)
        self.queues = [name for names in chosen.values() for name in names]
        for name in self.queues:
            self.broker.create_queue(name)
            self.published[name] = []
            self.consumed[name] = []

    # -- run ---------------------------------------------------------------------------

    def run_chunk(self, batch: list[tuple[str, Message]]) -> int:
        latency, clock = self.samples["latency"], time.perf_counter
        started = clock()
        self.publish_many(batch)
        latency.append(clock() - started)
        for name in self.queues:
            started = clock()
            messages = self.consume_batch(name, PER_QUEUE)
            latency.append(clock() - started)
            consumed = self.consumed[name]
            for message in messages:
                if self.drop_next:
                    self.drop_next = False
                    continue
                consumed.append(message.payload["seq"])
            started = clock()
            self.acked += self.ack_batch(name, [m.message_id for m in messages])
            latency.append(clock() - started)
        return len(batch)

    def counters(self) -> dict[str, float]:
        return {"sends": self.sends}

    def layer_metrics(self, self_us, calls, delta, events):
        return {
            "shard.publish_many_us": self_us("shard.publish_many"),
            "shard.consume_batch_us": self_us("shard.consume_batch"),
            "shard.ack_batch_us": self_us("shard.ack_batch"),
            "shard.requests_per_msg": ratio(delta["sends"], events),
        }

    # -- correctness -----------------------------------------------------------------

    def check(self) -> tuple[int, int]:
        """Every published sequence number consumed once, in FIFO order
        per queue, and acked exactly once."""
        attempted = failed = 0
        for name, published in self.published.items():
            consumed = self.consumed[name]
            attempted += len(published)
            failed += sum(a != b for a, b in zip(published, consumed))
            failed += abs(len(published) - len(consumed))
        failed += abs(attempted - self.acked)
        return attempted, failed

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.stop()
            for handle in self.coordinator.workers.values():
                handle.process.join(timeout=10.0)


WORKLOAD = FleetQueues
