"""The traced run's own span log.

Spans are recorded by the benchmark around its calls into each layer's
public functions; nothing inside the program is instrumented. They stay
in memory (name, start, end, parent, one trace id per operation) and
are written once at the end as JSONL in the ``repro.observability``
record schema, so ``python -m repro report FILE`` renders them.

With tracing off every method is a cheap no-op, so the same code path
measures the end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import json
import os
import time


class SpanLog:
    def __init__(self, enabled):
        self.enabled = bool(enabled)
        self.records = []
        self.counts = {}
        self._stack = []
        self._trace_id = None
        self._epoch = time.perf_counter()

    @staticmethod
    def _new_id(n=8):
        return os.urandom(n).hex()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Time one call; a span opened with no parent starts a new
        operation with its own trace id."""
        if not self.enabled:
            yield None
            return
        if not self._stack:
            self._trace_id = self._new_id(16)
        record = {
            "name": name,
            "start": time.perf_counter() - self._epoch,
            "duration": None,
            "n_ticks": 0,
            "trace_id": self._trace_id,
            "span_id": self._new_id(),
            "parent_id": self._stack[-1]["span_id"] if self._stack else None,
        }
        if attrs:
            record["attrs"] = attrs
        self.records.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["duration"] = (time.perf_counter() - self._epoch
                                  - record["start"])

    def count(self, name, value=1):
        """Add to a per-layer counter (no-op with tracing off)."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def adopt(self, records, parent):
        """Nest span records produced by the server under ``parent``."""
        if not self.enabled or parent is None:
            return
        ids = {r.get("span_id") for r in records}
        for rec in records:
            rec = dict(rec)
            rec["trace_id"] = parent["trace_id"]
            if rec.get("parent_id") not in ids:
                rec["parent_id"] = parent["span_id"]
            self.records.append(rec)

    def durations(self, name):
        """Durations (s) of every finished span called ``name``."""
        return [r["duration"] for r in self.records
                if r["name"] == name and r["duration"] is not None]

    def write(self, path):
        """Write the spans as one causal tree per trace (JSONL)."""
        by_id = {r["span_id"]: r for r in self.records}
        children = {}
        roots = []
        for rec in self.records:
            if rec.get("parent_id") in by_id:
                children.setdefault(rec["parent_id"], []).append(rec)
            else:
                roots.append(rec)
        lines = []

        def visit(rec, depth, path):
            path = f"{path}/{rec['name']}" if path else rec["name"]
            out = dict(rec, path=path, depth=depth)
            out["start"] = round(out["start"] or 0.0, 6)
            if out["duration"] is not None:
                out["duration"] = round(out["duration"], 6)
            lines.append(json.dumps(out, sort_keys=True, default=str))
            for child in children.get(rec["span_id"], ()):
                visit(child, depth + 1, path)

        for root in roots:
            visit(root, 0, "")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return len(lines)
