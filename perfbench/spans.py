"""Span recorder owned by the benchmark.

Spans are recorded *around* calls into the program's layers, from
perfbench's own files (nothing inside ``src/`` is instrumented).  They
stay in memory until the workload ends and are then written as one
Chrome ``trace_event`` file.  A span has a name, start, end, the id of
the span that caused it (``parent``) and the id of the op it belongs to
(``op``) — the spans of one compile or one frame share an op id.

Self time of a span = its duration minus the part of its interval that
its child spans cover (children may overlap each other; the union is
what counts).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "tid")

    def __init__(self, id, name, start, end, parent, op, tid):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.tid = tid

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list; a disabled recorder records nothing, so the
    same workload code runs traced and untraced."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._next = 0
        self._ops = itertools.count(1)
        self._local = threading.local()

    def new_op(self) -> int:
        """A fresh op id (handed out whether or not spans are recorded,
        so traced and untraced runs number their ops alike)."""
        return next(self._ops)

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, op: int | None = None) -> int | None:
        """Record a span whose boundaries were measured elsewhere (all
        stamps are ``time.perf_counter()`` / ``time.monotonic()``
        seconds, one clock on Linux)."""
        if not self.enabled:
            return None
        span = Span(self._new_id(), name, start, end, parent, op,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
        return span.id

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[int | None]:
        """Time a region; nested ``span`` calls on one thread become
        children, and inherit the op id."""
        if not self.enabled:
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent, parent_op = stack[-1] if stack else (None, None)
        op = op if op is not None else parent_op
        span_id = self._new_id()
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, op,
                        threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def add_tree(self, root, parent: int | None, op: int | None,
                 offset_s: float, prefix: str = "") -> None:
        """Graft a finished ``repro.observe`` span tree (what the public
        ``tracer=`` argument returns: ``name``, ``start_us``, ``dur_us``,
        ``children``) under ``parent``.  ``offset_s`` is the tracer's
        epoch on the perf_counter clock."""
        if not self.enabled:
            return
        start = offset_s + root.start_us / 1e6
        span_id = self.add(prefix + root.name, start,
                           start + root.dur_us / 1e6, parent, op)
        for child in root.children:
            self.add_tree(child, span_id, op, offset_s, prefix)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[int, float]:
        return self_times(self.spans)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    # -- export ------------------------------------------------------------
    def to_chrome(self) -> dict:
        selfs = self.self_times()
        origin = min((s.start for s in self.spans), default=0.0)
        tids: dict[int, int] = {}
        events = []
        for s in sorted(self.spans, key=lambda s: (s.start, s.id)):
            tid = tids.setdefault(s.tid, len(tids) + 1)
            events.append({
                "name": s.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "args": {"id": s.id, "parent": s.parent, "op": s.op,
                         "self_us": selfs[s.id] * 1e6},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome()))
        return path


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for child in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def validate(spans, slack_s: float = 5e-5) -> list[str]:
    """Structural check of a span list: unique ids, every parent exists,
    children lie inside their parents (within ``slack_s`` — stamps taken
    on two threads of one clock), self times are not negative, and a
    span under a parent that belongs to an op belongs to the same op
    (phase containers such as set-up have no op and may hold many).
    Returns the problems found."""
    problems = []
    by_id = {}
    for s in spans:
        if s.id in by_id:
            problems.append(f"duplicate span id {s.id}")
        by_id[s.id] = s
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
    for s in spans:
        if s.parent is None:
            continue
        parent = by_id.get(s.parent)
        if parent is None:
            problems.append(f"span {s.id} {s.name}: parent {s.parent} "
                            f"was never recorded")
            continue
        if s.start < parent.start - slack_s or s.end > parent.end + slack_s:
            problems.append(f"span {s.id} {s.name} lies outside its "
                            f"parent {parent.id} {parent.name}")
        if parent.op is not None and s.op != parent.op:
            problems.append(f"span {s.id} {s.name}: op {s.op} differs "
                            f"from parent's {parent.op}")
    for span_id, value in self_times(spans).items():
        if value < -slack_s:
            problems.append(f"span {span_id}: negative self time {value}")
    return problems


def validate_chrome(doc: dict) -> list[str]:
    """Check a trace file written by :meth:`Recorder.write_chrome`."""
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["no traceEvents"]
    spans = []
    for e in events:
        if e.get("ph") != "X" or "args" not in e:
            return [f"unexpected event {e!r}"]
        a = e["args"]
        start = e["ts"] / 1e6
        spans.append(Span(a["id"], e["name"], start, start + e["dur"] / 1e6,
                          a["parent"], a["op"], e["tid"]))
    return validate(spans)
