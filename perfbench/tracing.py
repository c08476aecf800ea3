"""In-memory span recording, self-time analysis and Chrome trace export.

Spans are kept in a list per process and written once, at exit, as JSON
lines (``spans-<pid>.jsonl``) into a trace directory.  Each span records its
name, start and end (``time.perf_counter_ns``, i.e. CLOCK_MONOTONIC on
Linux, so spans of different processes share one time base), its own id,
its parent's id (0 for a root), the request id current on its thread, the
thread and process ids, and a few attributes.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Records spans of one process; :meth:`flush` writes them out."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: name -> callable returning a dict of counters, sampled at flush.
        self.counter_sources: dict[str, object] = {}
        self._flushed = False

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def rid(self):
        return getattr(self._local, "rid", None)

    @rid.setter
    def rid(self, value) -> None:
        self._local.rid = value

    def begin(self) -> tuple[int, int, int]:
        """Open a span on this thread; returns the token :meth:`end` takes."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return span_id, parent, time.perf_counter_ns()

    def end(self, token: tuple[int, int, int], name: str, attrs: dict | None = None,
            rid=None) -> None:
        end = time.perf_counter_ns()
        span_id, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self._spans.append((name, start, end, span_id, parent,
                            self.rid if rid is None else rid,
                            threading.get_ident(), attrs))

    def record(self, name: str, start_ns: int, end_ns: int, *, rid=None,
               attrs: dict | None = None) -> None:
        """Add an externally timed root span (e.g. a client request)."""
        self._spans.append((name, start_ns, end_ns, next(self._ids), 0, rid,
                            threading.get_ident(), attrs))

    def span(self, name: str, **attrs) -> "_SpanContext":
        return _SpanContext(self, name, attrs or None)

    # -- fork and exit -----------------------------------------------------
    def reset_after_fork(self) -> None:
        """Forget the parent's spans and counters in a freshly forked child."""
        self.pid = os.getpid()
        self._spans = []
        self._local = threading.local()
        self.counter_sources = {}
        self._flushed = False

    def flush(self) -> Path | None:
        """Write this process's spans and counters (once)."""
        if self._flushed:
            return None
        self._flushed = True
        counters = {}
        for name, source in self.counter_sources.items():
            try:
                counters[name] = source()
            except Exception as error:  # noqa: BLE001 - never fail the program
                counters[name] = {"error": repr(error)}
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": self.pid, "counters": counters}) + "\n")
            for name, start, end, span_id, parent, rid, tid, attrs in self._spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "id": span_id,
                     "parent": parent, "rid": rid, "tid": tid, "pid": self.pid,
                     "attrs": attrs or {}}) + "\n")
        return path


class _SpanContext:
    __slots__ = ("tracer", "name", "attrs", "token")

    def __init__(self, tracer: Tracer, name: str, attrs: dict | None) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_SpanContext":
        self.token = self.tracer.begin()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs = dict(self.attrs or {}, error=exc_type.__name__)
        self.tracer.end(self.token, self.name, self.attrs)


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def load_trace_dir(trace_dir: str | Path) -> tuple[list[dict], dict[int, dict]]:
    """All spans and per-process counters written into ``trace_dir``."""
    spans: list[dict] = []
    counters: dict[int, dict] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            header = handle.readline()
            if not header:
                continue
            head = json.loads(header)
            counters[head["pid"]] = head.get("counters", {})
            for line in handle:
                if line.strip():
                    spans.append(json.loads(line))
    return spans, counters


def self_times(spans: list[dict]) -> dict[tuple[int, int], int]:
    """Self time (ns) of every span, keyed by ``(pid, id)``.

    Children are the spans naming this span as parent within the same
    process; the covered part of the parent's interval is the union of the
    children's intervals clipped to it.
    """
    children: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span["parent"]:
            children[(span["pid"], span["parent"])].append((span["start"], span["end"]))
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        start, end = span["start"], span["end"]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(key, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[key] = (end - start) - covered
    return result


def layer_of(name: str) -> str:
    """The layer a span belongs to: the part of its name before the first dot."""
    return name.split(".", 1)[0]


def layer_table(spans: list[dict], waits: dict[str, float] | None = None) -> list[dict]:
    """Calls, busy, self and wait per layer.

    *calls* counts a layer's outermost spans (a span whose parent belongs to
    the same layer is nested work of that call), *busy* sums their
    durations, *self* sums the self time of all the layer's spans, and
    *wait* is the time work waited for the layer where the benchmark can
    measure it (``waits``, in ms).
    """
    by_key = {(span["pid"], span["id"]): span for span in spans}
    selfs = self_times(spans)
    rows: dict[str, dict] = {}
    for span in spans:
        layer = layer_of(span["name"])
        row = rows.setdefault(layer, {"layer": layer, "calls": 0, "busy_ms": 0.0,
                                      "self_ms": 0.0, "wait_ms": None})
        parent = by_key.get((span["pid"], span["parent"]))
        if parent is None or layer_of(parent["name"]) != layer:
            row["calls"] += 1
            row["busy_ms"] += (span["end"] - span["start"]) / 1e6
        row["self_ms"] += selfs[(span["pid"], span["id"])] / 1e6
    for layer, wait in (waits or {}).items():
        if layer in rows:
            rows[layer]["wait_ms"] = wait
    return sorted(rows.values(), key=lambda row: -row["self_ms"])


def chrome_trace(spans: list[dict], path: str | Path,
                 metadata: dict | None = None) -> Path:
    """Write ``spans`` as Chrome trace-event JSON (Perfetto, about:tracing)."""
    origin = min((span["start"] for span in spans), default=0)
    events = []
    for span in spans:
        args = dict(span.get("attrs") or {})
        if span.get("rid") is not None:
            args["rid"] = span["rid"]
        args["span_id"] = span["id"]
        args["parent_id"] = span["parent"]
        events.append({"name": span["name"], "cat": layer_of(span["name"]),
                       "ph": "X", "ts": (span["start"] - origin) / 1e3,
                       "dur": (span["end"] - span["start"]) / 1e3,
                       "pid": span["pid"], "tid": span["tid"], "args": args})
    path = Path(path)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms",
                                "otherData": metadata or {}}), encoding="utf-8")
    return path
