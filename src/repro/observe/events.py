"""Request-lifecycle events: bounded ring log + per-request timelines.

The serving runtime (:mod:`repro.serve`) answers *"where did this
frame's 24 ms go?"* by stamping every request with a handful of
lifecycle events::

    submitted -> dequeued -> [coalesced(batch_id, size)] ->
    dispatched(backend) -> completed | dropped(reason)

Two views share the same stamps:

* a per-request :class:`Timeline` (retrievable from the served
  ``Frame`` via ``frame.timeline()``) whose :meth:`Timeline.durations`
  decomposes the client-observed latency into ``queue_wait`` +
  ``batch_wait`` + ``execute`` = ``total`` *exactly* — all four come
  from the same monotonic timestamps, so the stages always add up;
* a service-wide :class:`EventLog`, a bounded, lock-cheap ring buffer
  every mark is mirrored into, with an optional JSON-lines sink for
  offline analysis (``PipelineService(events_path=...)``).

Everything here is stdlib-only and always-on cheap: one ``mark`` is a
clock read, a tuple append and a deque append under a short lock —
5-ish marks per request against frame times measured in milliseconds.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path

#: canonical lifecycle kinds, in the order a healthy request visits them
LIFECYCLE_KINDS = ("submitted", "dequeued", "coalesced", "dispatched",
                   "completed", "dropped")


class Event:
    """One timestamped occurrence: what happened, to whom, with detail.

    ``ts`` is monotonic seconds (same clock as deadlines), so event
    deltas are durations; :meth:`to_dict` adds the owning log's
    wall-clock anchor for cross-process correlation.
    """

    __slots__ = ("ts", "kind", "request_id", "fields")

    def __init__(self, ts: float, kind: str, request_id: int | None,
                 fields: dict):
        self.ts = ts
        self.kind = kind
        self.request_id = request_id
        self.fields = fields

    def to_dict(self) -> dict:
        record = {"ts": self.ts, "kind": self.kind}
        if self.request_id is not None:
            record["request_id"] = self.request_id
        if self.fields:
            record.update(self.fields)
        return record

    def __repr__(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in self.fields.items())
        rid = f" #{self.request_id}" if self.request_id is not None else ""
        return f"<Event {self.kind}{rid} @{self.ts:.6f}{extra}>"


class EventLog:
    """Bounded ring of :class:`Event`, optionally tee'd to a JSONL sink.

    The ring keeps the most recent ``capacity`` events (older ones are
    evicted, counted in :attr:`evicted`); ``sink=`` streams *every*
    event to a JSON-lines file as it happens, so a long run's full
    history survives even though the ring is bounded.  Appends take one
    short lock — cheap enough to sit on the serving hot path.
    """

    def __init__(self, capacity: int = 4096, sink: str | Path | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._appended = 0
        self._t0 = time.monotonic()
        self._wall0 = time.time()
        self._sink = open(sink, "a", encoding="utf-8") if sink else None
        self._sink_path = Path(sink) if sink else None

    def append(self, kind: str, request_id: int | None = None,
               ts: float | None = None, **fields) -> Event:
        """Record one event (timestamped now unless ``ts`` is given)."""
        return self.append_event(
            Event(ts if ts is not None else time.monotonic(),
                  kind, request_id, fields))

    def append_event(self, event: Event) -> Event:
        """Record an already-built :class:`Event` (the hot path:
        :meth:`Timeline.mark` shares one object between the timeline
        and the ring instead of allocating twice)."""
        with self._lock:
            self._ring.append(event)
            self._appended += 1
            if self._sink is not None:
                self._sink.write(json.dumps(self._jsonl_record(event))
                                 + "\n")
        return event

    def _jsonl_record(self, event: Event) -> dict:
        record = event.to_dict()
        # relative + wall timestamps travel better than a bare monotonic
        record["t_rel"] = event.ts - self._t0
        record["wall"] = self._wall0 + (event.ts - self._t0)
        return record

    # -- reads -------------------------------------------------------------
    def events(self, request_id: int | None = None,
               kind: str | None = None) -> list[Event]:
        """Snapshot of buffered events, optionally filtered."""
        with self._lock:
            snapshot = list(self._ring)
        if request_id is not None:
            snapshot = [e for e in snapshot if e.request_id == request_id]
        if kind is not None:
            snapshot = [e for e in snapshot if e.kind == kind]
        return snapshot

    @property
    def appended(self) -> int:
        """Total events ever appended (evicted ones included)."""
        with self._lock:
            return self._appended

    @property
    def evicted(self) -> int:
        """Events the bounded ring has already forgotten."""
        with self._lock:
            return self._appended - len(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    # -- export ------------------------------------------------------------
    def write_jsonl(self, path: str | Path) -> Path:
        """Dump the buffered ring as JSON lines (one event per line)."""
        path = Path(path)
        with self._lock:
            lines = [json.dumps(self._jsonl_record(e)) for e in self._ring]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None


class Timeline:
    """One request's lifecycle record: ordered marks plus derived stages.

    Marks land in the timeline's own list (O(1) per-request retrieval)
    and are mirrored into the service :class:`EventLog` when one is
    attached.  ``sampled`` tags requests promoted to full Chrome-trace
    async spans by the service's ``sample_rate`` knob.
    """

    __slots__ = ("request_id", "sampled", "_log", "_marks")

    def __init__(self, request_id: int, log: EventLog | None = None,
                 sampled: bool = False):
        self.request_id = request_id
        self.sampled = sampled
        self._log = log
        # no lock: ``list.append`` and ``list(...)`` snapshots are atomic
        # under the GIL, and each mark lands exactly once — the cross-
        # thread ordering marks need is given by the timestamps
        self._marks: list[Event] = []

    def mark(self, kind: str, **fields) -> Event:
        """Stamp one lifecycle event now (submit or worker thread)."""
        event = Event(time.monotonic(), kind, self.request_id, fields)
        self._marks.append(event)
        if self._log is not None:
            self._log.append_event(event)
        return event

    def graft(self, marks, base_ts: float | None = None,
              prefix: str = "worker_") -> None:
        """Splice marks recorded in another process into this timeline.

        ``marks`` is a sequence of ``(dt, kind, fields)`` tuples with
        ``dt`` relative to the sender's anchor (its clock never crosses
        the pipe); ``base_ts`` — default *now* — re-anchors them on this
        process's monotonic clock.  Every kind gains ``prefix`` so the
        local lifecycle decomposition (:meth:`durations`) keeps reading
        only this process's own marks while the full render still shows
        where the remote time went.
        """
        anchor = base_ts if base_ts is not None else time.monotonic()
        for dt, kind, fields in marks:
            event = Event(anchor + dt, prefix + kind, self.request_id,
                          dict(fields))
            self._marks.append(event)
            if self._log is not None:
                self._log.append_event(event)

    def events(self) -> list[Event]:
        return list(self._marks)

    def ts(self, kind: str) -> float | None:
        """Timestamp of the *first* mark of ``kind`` (None if absent)."""
        for event in list(self._marks):
            if event.kind == kind:
                return event.ts
        return None

    def last(self, kind: str) -> Event | None:
        for event in reversed(list(self._marks)):
            if event.kind == kind:
                return event
        return None

    def durations(self) -> dict[str, float]:
        """Per-stage decomposition in seconds.

        ``queue_wait`` (submitted→dequeued), ``batch_wait``
        (dequeued→first dispatched — claim + coalescing window),
        ``execute`` (first dispatched→completed/dropped; a fallback
        retry's second dispatch stays inside execute) and ``total``.
        The three stages sum to ``total`` exactly — they are differences
        of the same four timestamps.  Stages whose boundary events have
        not happened (yet) are simply absent.
        """
        events = self.events()  # one lock acquisition, then local scans

        def first(kind: str) -> float | None:
            for event in events:
                if event.kind == kind:
                    return event.ts
            return None

        submitted = first("submitted")
        dequeued = first("dequeued")
        dispatched = first("dispatched")
        end = first("completed")
        if end is None:
            end = first("dropped")
        stages: dict[str, float] = {}
        if submitted is not None and dequeued is not None:
            stages["queue_wait"] = dequeued - submitted
        if dequeued is not None and dispatched is not None:
            stages["batch_wait"] = dispatched - dequeued
        if dispatched is not None and end is not None:
            stages["execute"] = end - dispatched
        if submitted is not None and end is not None:
            stages["total"] = end - submitted
        return stages

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "sampled": self.sampled,
            "events": [e.to_dict() for e in self.events()],
            "durations": self.durations(),
        }

    def render(self) -> str:
        """Human-readable timeline relative to the ``submitted`` mark."""
        events = self.events()
        if not events:
            return f"request {self.request_id}: <no events>"
        t0 = events[0].ts
        lines = [f"request {self.request_id}"
                 f"{' (sampled)' if self.sampled else ''}:"]
        for event in events:
            extra = "".join(f" {k}={v}" for k, v in event.fields.items())
            lines.append(f"  +{(event.ts - t0) * 1000.0:8.3f} ms "
                         f"{event.kind}{extra}")
        stages = self.durations()
        if stages:
            lines.append("  stages: " + ", ".join(
                f"{name} {stages[name] * 1000.0:.3f} ms"
                for name in ("queue_wait", "batch_wait", "execute", "total")
                if name in stages))
        return "\n".join(lines)

    def __repr__(self) -> str:
        kinds = [e.kind for e in self.events()]
        return f"Timeline(#{self.request_id}, {' -> '.join(kinds)})"
