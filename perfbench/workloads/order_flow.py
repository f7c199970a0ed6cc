"""order_flow — the paper's whole dataflow, driven by client SQL.

Client ``INSERT ... VALUES (?, ...)`` statements write orders into a
database journaled to a file (``sync_policy="commit"``; see
``_tmpfs_fsync`` for how the flush behaves).  ``TriggerCapture`` feeds a 200-rule
``RuleEngine`` (150 per-account rules: an equality and a range test;
50 per-symbol price bands), whose ``EnqueueAction`` puts matches on a
local queue.  A ``Propagator`` moves them to a second database's queue,
read through ``DeliveryManager.process_batch``.  Pub/sub and a keyed
``TumblingWindow`` ride on the same capture.  Propagation and delivery
are pumped every 16 inserts.

Latency sample: one delivered alert, from the start of the ``INSERT``
call to the consumer callback.
"""

from __future__ import annotations

import os
import random
import time
from collections import Counter
from typing import Any

from perfbench.workloads import Workload, ratio
from repro.capture.trigger_capture import TriggerCapture
from repro.clock import SimulatedClock
from repro.cq.stream import Stream
from repro.cq.window import TumblingWindow
from repro.db.database import Database
from repro.pubsub.broker import PubSubBroker
from repro.pubsub.delivery import DeliveryManager
from repro.queues.broker import QueueBroker
from repro.queues.propagation import PropagationLink, Propagator
from repro.rules.actions import EnqueueAction
from repro.rules.engine import RuleEngine
from repro.workloads.finance import OrderFlowGenerator

SYMBOLS = ("IBM", "ORCL", "MSFT", "HPQ", "SAP", "INTC", "CSCO", "AAPL", "AMZN", "GOOG")
ACCOUNTS = 150
BANDS_PER_SYMBOL = 5
PUMP_EVERY = 16
#: Event-time length of one generator segment (input is made lazily).
SEGMENT_SECONDS = 60.0

INSERT_SQL = (
    "INSERT INTO orders (order_id, account, symbol, qty, price, side) "
    "VALUES (?, ?, ?, ?, ?, ?)"
)


def _tmpfs_fsync(fd: int) -> None:
    """``os.fsync`` as it costs on tmpfs: nothing.

    The journals are real files, written, framed and checksummed by the
    program on every commit, but the benchmark may only write inside its
    checkout, which can sit on a shared disk whose fsync latency swings
    with other tenants' I/O.  Making the barrier a no-op measures the
    program's journal work without the disk's noise.
    """


def make_rules(seed: int) -> list[tuple[str, str, Any]]:
    """(rule_id, condition text, pure-Python predicate) for all 200 rules."""
    rng = random.Random(seed * 7919 + 1)
    rules: list[tuple[str, str, Any]] = []
    for k in range(ACCOUNTS):
        account, floor = f"acct{k}", rng.randrange(120, 190)
        rules.append((
            f"acct-{k}",
            f"account = '{account}' AND qty > {floor}",
            lambda o, a=account, f=floor: o[1] == a and o[3] > f,
        ))
    for symbol in SYMBOLS:
        for band in range(BANDS_PER_SYMBOL):
            low = rng.randrange(10, 290)
            rules.append((
                f"band-{symbol}-{band}",
                f"symbol = '{symbol}' AND price >= {low} AND price < {low + 6}",
                lambda o, s=symbol, lo=low: o[2] == s and lo <= o[4] < lo + 6,
            ))
    return rules


class OrderFlow(Workload):
    chunk_events = 48
    chunks_per_second = 30

    def __init__(self, seed: int, scratch: str, **kwargs: Any) -> None:
        super().__init__(seed, scratch, **kwargs)
        self.rules = make_rules(seed)
        self._segment = 0
        self._pending: list[tuple] = []
        self._next_id = 0
        self.orders: list[tuple] = []  # compact copy for the reference check
        self.started: dict[int, float] = {}
        self.published: dict[tuple[int, str], float] = {}
        self.delivered: list[tuple[int, str]] = []
        self.pubsub_seen = 0
        self.window_seen = 0

    # -- input ------------------------------------------------------------

    def make_chunk(self) -> list[tuple]:
        while len(self._pending) < self.chunk_events:
            generator = OrderFlowGenerator(
                accounts=ACCOUNTS,
                symbols=SYMBOLS,
                episode_count=1,
                seed=self.seed * 100_003 + self._segment,
            )
            offset = 1_000.0 + self._segment * SEGMENT_SECONDS
            for event in generator.generate(SEGMENT_SECONDS):
                p = event.payload
                self._pending.append((
                    self._next_id, p["account"], p["symbol"], p["qty"],
                    p["price"], p["side"], offset + event.timestamp,
                ))
                self._next_id += 1
            self._segment += 1
        batch = self._pending[: self.chunk_events]
        del self._pending[: self.chunk_events]
        self.orders.extend(batch)
        return batch

    # -- set-up -------------------------------------------------------------

    def setup_steps(self):
        return [self._databases, self._queues, self._rules, self._capture]

    def _databases(self) -> None:
        self._fsync, os.fsync = os.fsync, _tmpfs_fsync
        self.clock = SimulatedClock(start=1_000.0)
        self.wal_paths = [
            os.path.join(self.scratch, "orders.wal"),
            os.path.join(self.scratch, "remote.wal"),
        ]
        self.db = Database(
            self.wal_paths[0], sync_policy="commit", clock=self.clock,
            faults=self.faults,
        )
        self.remote_db = Database(
            self.wal_paths[1], sync_policy="commit", clock=self.clock,
            faults=self.faults,
        )
        self.db.execute(
            "CREATE TABLE orders (order_id INT PRIMARY KEY, account TEXT,"
            " symbol TEXT, qty INT, price REAL, side TEXT)"
        )

    def _queues(self) -> None:
        self.broker = QueueBroker(self.db)
        self.broker.create_queue("alerts")
        self.remote = QueueBroker(self.remote_db, name="remote")
        self.remote.create_queue("inbox")
        self.propagator = Propagator(self.broker, "alerts").add_link(
            PropagationLink(name="to-remote", broker=self.remote, queue_name="inbox")
        )
        self.delivery = DeliveryManager(
            self.remote, "inbox", ack_timeout=60.0, max_attempts=3,
            dead_letter_queue="inbox_dlq",
        )
        if self.tracer is not None:
            traced = self.tracer.wrap("queues.publish", self.broker.publish)

            def publish(queue_name: str, message: Any, **kwargs: Any) -> Any:
                p = message.payload
                self.published[(p["context"]["order_id"], p["rule_id"])] = (
                    time.perf_counter()
                )
                return traced(queue_name, message, **kwargs)

            self.broker.publish = publish
            self.patch(self.remote, "publish", "queues.publish")
            self.patch(self.db.wal, "flush", "db.wal.flush")
            self.patch(self.remote_db.wal, "flush", "db.wal.flush")
            self.patch(self.db, "execute", "db.execute")
        self.pump = self.traced("queues.propagation.pump", self.propagator.pump)
        self.process_batch = self.traced(
            "pubsub.delivery.process_batch", self.delivery.process_batch
        )

    def _rules(self) -> None:
        self.engine = RuleEngine(metrics=self.db.obs)
        action = EnqueueAction(self.broker, "alerts")
        for rule_id, condition, _ in self.rules:
            self.engine.add(
                rule_id, condition, action=action, event_types=("orders.insert",)
            )

    def _capture(self) -> None:
        self.capture = TriggerCapture(self.db, ["orders"], name="orders_capture")
        self.capture.subscribe(self.traced("rules.evaluate", self.engine.evaluate))
        self.pubsub = PubSubBroker(self.db)
        self.pubsub.create_topic("orders")
        self.pubsub.subscribe("audit", "orders", callback=self._on_pubsub)
        self.capture.subscribe(self.traced(
            "pubsub.publish", lambda event: self.pubsub.publish("orders", event)
        ))
        self.stream = Stream("orders")
        self.window = TumblingWindow(self.stream, 10.0, key_field="symbol")
        self.window.subscribe(self._on_pane)
        self.capture.subscribe(self.traced("cq.window.push", self.stream.push))

    # -- sinks --------------------------------------------------------------

    def _on_pubsub(self, *args: Any) -> None:
        self.pubsub_seen += 1

    def _on_pane(self, event: Any) -> None:
        self.window_seen += len(event["pane"])

    def _consume(self, message: Any) -> None:
        now = time.perf_counter()
        payload = message.payload
        order_id = payload["context"]["order_id"]
        key = (order_id, payload["rule_id"])
        if self.drop_next:
            self.drop_next = False
            return
        self.delivered.append(key)
        self.samples["latency"].append(now - self.started[order_id])
        if key in self.published:
            self.samples["queues.wait"].append(now - self.published.pop(key))

    # -- run ------------------------------------------------------------------

    def run_chunk(self, batch: list[tuple]) -> int:
        clock, started, execute = self.clock, self.started, self.db.execute
        for i, order in enumerate(batch, 1):
            clock.advance_to(order[6])
            started[order[0]] = time.perf_counter()
            execute(INSERT_SQL, order[:6])
            if i % PUMP_EVERY == 0:
                self.pump(batch=256)
                self.process_batch(self._consume, batch=256)
        return len(batch)

    def counters(self) -> dict[str, float]:
        cache = self.db.statement_cache.stats
        return {
            "inserts": len(self.orders),
            "cache_hits": cache["hits"],
            "cache_lookups": cache["hits"] + cache["misses"],
            "commits": self.db.statistics["commits"]
            + self.remote_db.statistics["commits"],
            "flushes": self.db.wal.flush_count + self.remote_db.wal.flush_count,
            "wal_bytes": sum(os.path.getsize(p) for p in self.wal_paths),
            "captured": self.capture.events_captured,
            "evaluated": self.engine.stats["events_evaluated"],
            "conditions": self.engine.stats["conditions_evaluated"],
            "matches": self.engine.stats["matches"],
            "forwarded": self.propagator.stats["forwarded"],
            "redelivered": self.delivery.stats["redelivered"],
        }

    def layer_metrics(self, self_us, calls, delta, events):
        return {
            "db.execute.self_us": self_us("db.execute"),
            "db.statement_cache.hit_ratio": ratio(
                delta["cache_hits"], delta["cache_lookups"]
            ),
            "db.wal.flush_us": self_us("db.wal.flush"),
            "db.wal.commits_per_flush": ratio(delta["commits"], delta["flushes"]),
            "db.wal.bytes_per_event": ratio(delta["wal_bytes"], events),
            "capture.trigger.events_per_statement": ratio(
                delta["captured"], delta["inserts"]
            ),
            "rules.evaluate.self_us": self_us("rules.evaluate"),
            "rules.conditions_per_event": ratio(
                delta["conditions"], delta["evaluated"]
            ),
            "rules.matches_per_event": ratio(delta["matches"], delta["evaluated"]),
            "queues.publish_us": self_us("queues.publish"),
            "queues.propagation.pump_us": self_us("queues.propagation.pump"),
            "queues.propagation.forwarded_per_pump": ratio(
                delta["forwarded"], calls.get("queues.propagation.pump", 0)
            ),
            "pubsub.publish_us": self_us("pubsub.publish"),
            "pubsub.delivery.process_batch_us": self_us(
                "pubsub.delivery.process_batch"
            ),
            "pubsub.delivery.redelivered": delta["redelivered"],
            "cq.window.push_self_us": self_us("cq.window.push"),
        }

    # -- correctness ------------------------------------------------------

    def check(self) -> tuple[int, int]:
        """Delivered (order_id, rule_id) pairs against a pure-Python
        evaluation of every rule; pub/sub and window counts against the
        number of inserts."""
        self.window.flush()
        expected: Counter = Counter()
        for order in self.orders:
            for rule_id, _, predicate in self.rules:
                if predicate(order):
                    expected[(order[0], rule_id)] += 1
        delivered = Counter(self.delivered)
        wrong = sum(((expected - delivered) + (delivered - expected)).values())
        inserted = len(self.orders)
        wrong += abs(self.pubsub_seen - inserted) + abs(self.window_seen - inserted)
        return sum(expected.values()) + 2 * inserted, wrong

    def close(self) -> None:
        os.fsync = getattr(self, "_fsync", os.fsync)
        for path in getattr(self, "wal_paths", []):
            if os.path.exists(path):
                os.remove(path)


WORKLOAD = OrderFlow
