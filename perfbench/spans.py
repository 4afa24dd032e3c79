"""Spans kept in memory during a traced run and written out when it ends."""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    """Records (name, start, end, parent) for each span, parents by index."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._open[-1] if self._open else None, "start_ns": perf_counter_ns()}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end_ns"] = perf_counter_ns()
            self._open.pop()

    def durations_ns(self, name: str) -> list[int]:
        return [s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name]

    def median_s(self, name: str) -> float:
        return statistics.median(self.durations_ns(name)) / 1e9

    def with_self_times(self) -> list[dict]:
        """Each span plus its self time: its duration minus what its children
        cover.  Children of one span run one after another, never overlapping."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
        return [dict(s, self_ns=s["end_ns"] - s["start_ns"] - c) for s, c in zip(self.spans, child_ns)]

    def write(self, path, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump(dict(extra, spans=self.with_self_times()), f)
