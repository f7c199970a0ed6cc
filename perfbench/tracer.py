"""Spans around the public calls the benchmark makes into each layer.

Only the traced run installs these wrappers; the gated end-to-end runs
never do.  A span is ``(name, start, end, parent)`` with ``parent`` the
index of the enclosing span (or -1).  Spans stay in memory and are
written out once, at the end of the run.  Self time (duration minus
the time covered by child spans) and call counts are accumulated per
name as the spans close, one bucket per timed chunk, so the harness can
rescale each bucket with that chunk's reference factor.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list[Any]] = []  # [name, start, child_time, index]
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.top_level = 0.0  # wall time covered by root spans

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, clock(), 0.0, len(spans)]
            spans.append(None)  # type: ignore[arg-type]  # slot, filled below
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.self_time[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    spans[frame[3]] = (name, frame[1], end, parent[3])
                else:
                    self.top_level += duration
                    spans[frame[3]] = (name, frame[1], end, -1)

        return traced

    def patch(self, obj: Any, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with a traced wrapper (instance attribute,
        so calls the program makes through ``self.attr`` are traced too)."""
        setattr(obj, attr, self.wrap(name, getattr(obj, attr)))

    def take(self) -> tuple[dict[str, float], dict[str, int], float]:
        """Self times, call counts and root-span time since the last take."""
        taken = (dict(self.self_time), dict(self.calls), self.top_level)
        self.self_time.clear()
        self.calls.clear()
        self.top_level = 0.0
        return taken

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
