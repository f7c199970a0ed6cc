"""watchlist_cqn — continuous-query notification under steady writes.

A ``positions`` table is preloaded with 2,000 rows.  Client statements
are 60% ``UPDATE`` of ``qty``, 20% ``INSERT`` and 20% ``DELETE``, so
the table size stays steady.  Statement kinds and ``qty`` values are
dealt from shuffled decks, so every seed holds the table size and the
watched share as steady as the mix allows, and costs the same.  One keyed ``QueryNotificationCapture``
watches a predicate that selects about 10% of the rows, and a dashboard
``GROUP BY`` aggregate ``SELECT`` runs after every 50 writes.

Latency sample: one client statement (write or dashboard read),
including the CQN work done at its commit.
"""

from __future__ import annotations

import random
import sqlite3
import time
from typing import Any

from perfbench.workloads import Workload, ratio
from repro.capture.notification_capture import QueryNotificationCapture
from repro.clock import SimulatedClock
from repro.db.database import Database
from repro.db.sql import executor

PRELOAD = 2_000
QTY_RANGE = 1_000
WATCH_ABOVE = 900  # qty > 900: about 10% of rows
DASHBOARD_EVERY = 50
SYMBOLS = ("IBM", "ORCL", "MSFT", "HPQ", "SAP", "INTC", "CSCO", "AAPL")

CREATE = (
    "CREATE TABLE positions (pos_id INT PRIMARY KEY, account TEXT,"
    " symbol TEXT, qty INT, price REAL)"
)
INSERT = (
    "INSERT INTO positions (pos_id, account, symbol, qty, price)"
    " VALUES (?, ?, ?, ?, ?)"
)
UPDATE = "UPDATE positions SET qty = ? WHERE pos_id = ?"
DELETE = "DELETE FROM positions WHERE pos_id = ?"
WATCH = f"SELECT pos_id, account, symbol, qty FROM positions WHERE qty > {WATCH_ABOVE}"
#: Per-account totals (200 groups): about twice a write's cost, so the
#: dashboard reads (2% of statements) set the p99 rather than mixing
#: with the slowest writes at it.
DASHBOARD = (
    "SELECT account, count(*) AS n, sum(qty) AS total, max(qty) AS top"
    " FROM positions GROUP BY account"
)


class _Deck:
    """Seeded draws without replacement from ``cards``, reshuffled once
    used up: every full pass deals each card exactly once."""

    def __init__(self, rng: random.Random, cards: list) -> None:
        self.rng = rng
        self.cards = cards
        self._hand: list = []

    def draw(self):
        if not self._hand:
            self._hand = list(self.cards)
            self.rng.shuffle(self._hand)
        return self._hand.pop()


class WatchlistCqn(Workload):
    chunk_events = 10
    chunks_per_second = 30

    def __init__(self, seed: int, scratch: str, **kwargs: Any) -> None:
        super().__init__(seed, scratch, **kwargs)
        self.rng = random.Random(seed * 31 + 5)
        self._kinds = _Deck(self.rng, [UPDATE] * 6 + [INSERT] * 2 + [DELETE] * 2)
        self._qty = _Deck(self.rng, list(range(QTY_RANGE)))
        self._live: list[int] = []  # live pos_ids, swap-removed
        self._slot: dict[int, int] = {}
        self._next_id = 0
        self._writes = 0
        self.preload = [self._new_row() for _ in range(PRELOAD)]
        self.log: list[tuple] = []  # ("w", sql, params) / ("r", rows)
        self.watched: dict[int, dict[str, Any]] = {}

    # -- input ----------------------------------------------------------------

    def _new_row(self) -> tuple:
        pos_id = self._next_id
        self._next_id += 1
        self._slot[pos_id] = len(self._live)
        self._live.append(pos_id)
        rng = self.rng
        return (
            pos_id, f"acct{rng.randrange(200)}", rng.choice(SYMBOLS),
            self._qty.draw(), round(rng.uniform(10, 300), 2),
        )

    def _remove(self, index: int) -> int:
        pos_id = self._live[index]
        last = self._live.pop()
        if last != pos_id:
            self._live[index] = last
            self._slot[last] = index
        del self._slot[pos_id]
        return pos_id

    def make_chunk(self) -> list[tuple]:
        rng, ops = self.rng, []
        for _ in range(self.chunk_events):
            if self._writes and self._writes % DASHBOARD_EVERY == 0:
                self._writes += 1  # the read takes this slot
                ops.append((DASHBOARD, None))
                continue
            self._writes += 1
            kind = self._kinds.draw()
            if kind == UPDATE:
                pos_id = self._live[rng.randrange(len(self._live))]
                ops.append((UPDATE, (self._qty.draw(), pos_id)))
            elif kind == INSERT:
                ops.append((INSERT, self._new_row()))
            else:
                ops.append((DELETE, (self._remove(rng.randrange(len(self._live))),)))
        return ops

    # -- set-up -----------------------------------------------------------------

    def setup_steps(self):
        return [self._schema, self._preload, self._watch]

    def _schema(self) -> None:
        self.clock = SimulatedClock(start=1_000.0)
        self.db = Database(sync_policy="commit", clock=self.clock, faults=self.faults)
        self.db.execute(CREATE)

    def _preload(self) -> None:
        columns = ("pos_id", "account", "symbol", "qty", "price")
        self.db.insert_many("positions", [dict(zip(columns, row)) for row in self.preload])
        self.watched = {
            row[0]: dict(zip(columns[:4], row[:4]))
            for row in self.preload if row[3] > WATCH_ABOVE
        }

    def _watch(self) -> None:
        self.dashboard = self.traced("db.query.dashboard", self.db.query)
        self.patch(self.db, "query", "db.query.cqn")
        self.patch(self.db, "execute", "db.execute")
        self.cqn = QueryNotificationCapture(
            self.db, WATCH, name="watchlist", key_columns=["pos_id"]
        )
        self.cqn.subscribe(self._on_change)

    def _on_change(self, event: Any) -> None:
        if self.drop_next:
            self.drop_next = False
            return
        kind = event.event_type.rsplit(".", 1)[1]
        if kind == "removed":
            self.watched.pop(event.payload["old"]["pos_id"], None)
        else:
            row = event.payload["new"]
            self.watched[row["pos_id"]] = dict(row)

    # -- run ----------------------------------------------------------------------

    def run_chunk(self, batch: list[tuple]) -> int:
        latency, log, clock = self.samples["latency"], self.log, self.clock
        execute = self.db.execute
        for sql, params in batch:
            clock.advance(0.01)
            if params is None:
                started = time.perf_counter()
                rows = self.dashboard(sql)
                latency.append(time.perf_counter() - started)
                log.append(("r", rows))
            else:
                started = time.perf_counter()
                execute(sql, params)
                latency.append(time.perf_counter() - started)
                log.append(("w", sql, params))
        return len(batch)

    def counters(self) -> dict[str, float]:
        cache = self.db.statement_cache.stats
        vector = executor.VECTOR_STATS
        return {
            "cache_hits": cache["hits"],
            "cache_lookups": cache["hits"] + cache["misses"],
            "commits": self.db.statistics["commits"],
            "flushes": self.db.wal.flush_count,
            "vector_fast": vector["fast_path"],
            "vector_all": sum(vector.values()),
            "cqn_commits": self.cqn.commits_observed,
            "cqn_runs": self.cqn.reevaluations,
            "cqn_events": self.cqn.events_captured,
        }

    def layer_metrics(self, self_us, calls, delta, events):
        return {
            "db.execute.self_us": self_us("db.execute"),
            "db.statement_cache.hit_ratio": ratio(
                delta["cache_hits"], delta["cache_lookups"]
            ),
            "db.wal.commits_per_flush": ratio(delta["commits"], delta["flushes"]),
            "db.query.cqn_us": self_us("db.query.cqn"),
            "db.query.dashboard_us": self_us("db.query.dashboard"),
            "db.vector.fast_path_ratio": ratio(
                delta["vector_fast"], delta["vector_all"]
            ),
            "capture.cqn.reevaluations_per_commit": ratio(
                delta["cqn_runs"], delta["cqn_commits"]
            ),
            "capture.cqn.notifications_per_reevaluation": ratio(
                delta["cqn_events"], delta["cqn_runs"]
            ),
        }

    # -- correctness ----------------------------------------------------------

    def check(self) -> tuple[int, int]:
        """Replay the client writes into a stdlib ``sqlite3`` mirror;
        every dashboard result must equal the mirror's at the same point,
        and the CQN change stream, folded onto a dict, must equal the
        mirror's watch query at the end."""
        mirror = sqlite3.connect(":memory:")
        mirror.execute(CREATE)
        mirror.executemany(INSERT, self.preload)
        attempted = failed = 0
        for entry in self.log:
            attempted += 1
            if entry[0] == "w":
                mirror.execute(entry[1], entry[2])
                continue
            expected = sorted(mirror.execute(DASHBOARD).fetchall())
            got = sorted(
                (r["account"], r["n"], r["total"], r["top"]) for r in entry[1]
            )
            failed += expected != got
        columns = ("pos_id", "account", "symbol", "qty")
        expected_watch = {
            row[0]: dict(zip(columns, row)) for row in mirror.execute(WATCH)
        }
        keys = expected_watch.keys() | self.watched.keys()
        attempted += len(keys)
        failed += sum(expected_watch.get(k) != self.watched.get(k) for k in keys)
        mirror.close()
        return attempted, failed


WORKLOAD = WatchlistCqn
