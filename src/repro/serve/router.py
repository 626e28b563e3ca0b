"""The sharded serving front door: route frames to worker processes.

:class:`ShardedService` exposes the same ``submit()``/``Frame`` contract
as the thread-based :class:`~repro.serve.service.PipelineService`, but
executes frames in a fleet of spawn-mode worker processes
(:mod:`repro.serve.worker`), so the interpreter fallback escapes the
GIL.  The router owns:

* **Admission** — a bounded count of in-flight frames across all
  shards, checked in the same lock hold that registers the frame; past
  it, ``submit`` rejects with :class:`~repro.serve.queue.Overloaded`
  (no hidden backlog).
* **Placement** — least-outstanding-work across live shards, so a
  frame goes to whichever worker is idle; coalescing forms inside each
  worker from the batchable frames already readable on its own pipe.
* **Transport** — each input is staged once (one copy) into router-
  owned shared-memory slabs; outputs come back as headers and are
  mapped as zero-copy views over the worker's slabs.  Pixels never
  cross the command pipe (:mod:`repro.serve.shm`).
* **Fault handling** — the fleet has a fixed size.  A receiver thread
  per shard notices a broken pipe, reaps the dead worker's segments by
  name prefix, respawns a replacement under a bumped generation (paused
  if the router is), and *requeues* that shard's in-flight frames onto
  live shards (inputs are router-owned, so no pixel is re-copied).  A
  frame is requeued at most once; a second death fails it with
  :class:`WorkerCrashed`.  Nothing ever hangs a ``Frame.result()``.
* **Observability** — :meth:`ShardedService.stats` merges per-worker
  :class:`~repro.serve.service.ServiceStats` (histograms bucket-exact
  via :meth:`~repro.observe.metrics.Histogram.merge`);
  :meth:`serve_metrics` renders one validated Prometheus exposition
  with a ``shard`` label per worker series.  Worker-side timeline marks
  are grafted back onto each frame's router timeline as ``worker_*``
  events.

See ``docs/internals.md`` §20 for the slab layout and the router state
machine.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import threading
import time
from concurrent.futures import Future
from multiprocessing import get_context
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.observe.events import EventLog, Timeline
from repro.observe.metrics import Histogram, LatencyWindow, MetricsRegistry
from repro.serve.deadlines import Deadline, DeadlineExceeded
from repro.serve.fallback import BUILDING, INTERPRETER, NATIVE
from repro.serve.queue import Overloaded, ServiceClosed
from repro.serve.service import (
    STAGES, Frame, ServiceStats, _timeout_reason, check_backend,
    stage_summaries,
)
from repro.serve.shm import (
    SegmentMap, SlabAllocator, live_segments, new_token, unlink_segments,
)
from repro.serve.worker import WorkerHandle


class WorkerCrashed(RuntimeError):
    """A frame's worker died and the frame was out of requeue budget."""

    def __init__(self, shard: int, pid: int | None, detail: str = ""):
        self.shard = shard
        self.pid = pid
        extra = f": {detail}" if detail else ""
        super().__init__(
            f"worker shard {shard} (pid {pid}) died mid-frame{extra}")


class _Pending:
    """One frame in flight between router and a worker."""

    __slots__ = ("rid", "future", "params", "headers", "leases",
                 "deadline", "timeline", "submitted_at", "requeued",
                 "shard")

    def __init__(self, rid, future, params, headers, leases, deadline,
                 timeline):
        self.rid = rid
        self.future = future
        self.params = params
        self.headers = headers
        self.leases = leases
        self.deadline = deadline
        self.timeline = timeline
        self.submitted_at = time.monotonic()
        self.requeued = False  # the one requeue a worker death grants
        self.shard = -1


class _RemotePool:
    """``Frame._pool`` duck-type for router-served frames: ``release``
    forwards slot frees over the producing shard's pipe (best-effort —
    a dead worker's slabs are reaped wholesale anyway)."""

    __slots__ = ("_handle", "_slots")

    def __init__(self, handle: WorkerHandle, slots: dict):
        self._handle = handle
        self._slots = slots  # id(array) -> ((segment, offset), gen)

    def release(self, *arrays) -> None:
        keys = [self._slots.pop(id(a)) for a in arrays
                if id(a) in self._slots]
        if keys:
            self._handle.send(("free", keys))


class _Shard:
    """Router-side state of one worker slot (survives respawns)."""

    def __init__(self, index: int):
        self.index = index
        self.gen = -1
        self.handle: WorkerHandle | None = None
        self.receiver: threading.Thread | None = None
        self.pending: dict[int, _Pending] = {}
        self.backend = BUILDING
        self.alive = False
        self.bye = threading.Event()
        self.segments: set[str] = set()
        self.stats_events: dict[int, threading.Event] = {}
        self.stats_replies: dict[int, dict] = {}
        self.last_stats: dict | None = None
        self.fatal: str | None = None
        self.spawned_at = 0.0
        self.fast_deaths = 0  # consecutive deaths right after spawn


class ShardedService:
    """Process-sharded pipeline serving behind one submit/Frame API.

    Parameters mirror :class:`~repro.serve.service.PipelineService`
    where they mean the same thing; the ones that differ:

    ``workers``
        Number of worker *processes* (shards); a dead one is respawned,
        so the fleet keeps this size.
    ``max_queue``
        Total in-flight frames the router admits across all shards.
    """

    def __init__(self, compiled, *,
                 workers: int = 2,
                 max_queue: int = 64,
                 backend: str = "auto",
                 default_deadline_s: float | None = None,
                 n_threads: int = 1,
                 max_batch: int = 8,
                 events_path: str | Path | None = None,
                 build_kwargs: Mapping | None = None,
                 name: str | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        check_backend(backend)
        self.plan = compiled.plan
        self.name = name or getattr(compiled, "name", "pipeline")
        self.backend_mode = backend
        self.default_deadline_s = default_deadline_s
        self.token = new_token()
        # identity-keyed Parameter/Image objects do not survive
        # pickling; the wire protocol is name-keyed and each worker
        # re-maps names onto its own unpickled plan objects
        self._plan_bytes = pickle.dumps(
            (dataclasses.replace(compiled.plan, verify_report=None),
             self.name))
        self._cfg = {
            "name": self.name, "token": self.token, "backend": backend,
            "n_threads": n_threads, "max_batch": max_batch,
            "build_kwargs": dict(build_kwargs or {}),
        }
        self._max_queue = max_queue
        self._ctx = get_context("spawn")

        # transport: router-owned input slabs (service-global — every
        # worker attaches, which is what makes requeue copy-free) and a
        # lazy map over the workers' announced output slabs
        self._input_alloc = SlabAllocator(self.token, "in")
        self.segment_map = SegmentMap()

        self._events = EventLog(sink=events_path)
        self._metrics = MetricsRegistry()
        self._latency = LatencyWindow()
        self._rid = itertools.count()
        self._stats_seq = itertools.count()
        self._lock = threading.RLock()
        self._counts = {
            "submitted": 0, "completed": 0, "rejected": 0,
            "timeouts": 0, "failures": 0, "cancelled": 0,
            "native_frames": 0, "interp_frames": 0,
            "requeued": 0, "worker_deaths": 0, "respawns": 0,
            "input_copies": 0,
        }
        self._timeout_reasons: dict[str, int] = {}
        self._shards: dict[int, _Shard] = {}
        self._retired_stats: list[dict] = []
        self._metrics_server = None
        self._paused = False  # under _lock: respawns inherit it
        self._closing = False
        self._closed = False
        self._close_lock = threading.Lock()

        for index in range(workers):
            self._spawn_shard(index)

    # -- bookkeeping -------------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + n

    # -- worker lifecycle --------------------------------------------------
    def _spawn_shard(self, index: int) -> "_Shard":
        with self._lock:
            shard = self._shards.get(index)
            if shard is None:
                shard = self._shards[index] = _Shard(index)
            shard.gen += 1
            if shard.gen:
                self._count("respawns")
            # a worker spawned while paused starts paused, before it
            # reads its first frame
            cfg = dict(self._cfg, shard=index, gen=shard.gen,
                       paused=self._paused)
            shard.handle = WorkerHandle(self._ctx, self._plan_bytes, cfg)
            shard.alive = True
            shard.bye = threading.Event()
            shard.fatal = None
            # building until the worker's hello: a shard is ready only
            # once its command loop is live
            shard.backend = BUILDING
            shard.spawned_at = time.monotonic()
            shard.receiver = threading.Thread(
                target=self._receive_loop, args=(shard, shard.handle),
                daemon=True,
                name=f"repro-router-{self.name}-rx{index}g{shard.gen}")
            shard.receiver.start()
        self._events.append("worker_spawn", None, shard=index,
                            gen=shard.gen)
        return shard

    def _receive_loop(self, shard: _Shard, handle: WorkerHandle) -> None:
        """Drain one worker's pipe until EOF, then handle its death."""
        conn = handle.conn
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError, ValueError):
                break
            kind = msg[0]
            if kind == "done":
                self._on_done(shard, handle, msg)
            elif kind == "err":
                self._on_err(shard, handle, msg)
            elif kind == "segment":
                with self._lock:
                    shard.segments.add(msg[1])
            elif kind == "hello":
                if self.backend_mode == "interpreter":
                    shard.backend = INTERPRETER
            elif kind == "backend":
                shard.backend = msg[1]
                self._events.append("backend", None, shard=shard.index,
                                    state=msg[1])
            elif kind == "stats":
                _, seq, payload = msg
                shard.last_stats = payload
                with self._lock:
                    shard.stats_replies[seq] = payload
                    event = shard.stats_events.pop(seq, None)
                if event is not None:
                    event.set()
            elif kind == "bye":
                shard.bye.set()
            elif kind == "fatal":
                shard.fatal = msg[1]
        self._on_pipe_down(shard, handle)

    def _on_done(self, shard: _Shard, handle: WorkerHandle,
                 msg: tuple) -> None:
        _, rid, headers, backend, marks = msg
        with self._lock:
            pending = shard.pending.pop(rid, None)
        if pending is None:
            # frame already failed/requeued (death race) — hand the
            # output slots straight back so they are not stranded
            handle.send(("free", [((h[0], h[1]), h[2])
                                  for h in headers.values()]))
            return
        now = time.monotonic()
        pending.timeline.graft(marks, now)
        outputs: dict[str, np.ndarray] = {}
        slots: dict[int, tuple] = {}
        for out_name, header in headers.items():
            array = self.segment_map.view(header)
            outputs[out_name] = array
            slots[id(array)] = ((header[0], header[1]), header[2])
        self._free_inputs(pending)
        if not pending.future.set_running_or_notify_cancel():
            handle.send(("free", list(slots.values())))
            self._count("cancelled")
            pending.timeline.mark("dropped", reason="cancelled")
            return
        latency = now - pending.submitted_at
        self._latency.record(latency)
        pending.timeline.mark("completed", backend=backend,
                              shard=shard.index)
        self._count("completed")
        self._count("native_frames" if backend == NATIVE
                    else "interp_frames")
        pending.future.set_result(
            Frame(outputs, backend, latency, _RemotePool(handle, slots),
                  _timeline=pending.timeline))

    def _on_err(self, shard: _Shard, handle: WorkerHandle,
                msg: tuple) -> None:
        _, rid, kind, detail, marks = msg
        with self._lock:
            pending = shard.pending.pop(rid, None)
        if pending is None:
            return
        pending.timeline.graft(marks, time.monotonic())
        reason = kind
        if kind == "deadline":
            exc: Exception = DeadlineExceeded(*detail)
            exc.timeline = pending.timeline
            reason = _timeout_reason(exc.where)
            with self._lock:
                self._counts["timeouts"] += 1
                self._timeout_reasons[reason] = \
                    self._timeout_reasons.get(reason, 0) + 1
        elif kind == "cancelled":
            exc = ServiceClosed(
                f"shard {shard.index} dropped the frame: {detail}")
            self._count("cancelled")
        else:
            exc = RuntimeError(f"shard {shard.index}: {detail}")
            self._count("failures")
        pending.timeline.mark("dropped", reason=reason, shard=shard.index)
        self._free_inputs(pending)
        if pending.future.set_running_or_notify_cancel():
            pending.future.set_exception(exc)
        else:
            self._count("cancelled")

    def _on_pipe_down(self, shard: _Shard,
                      handle: WorkerHandle) -> None:
        """The receiver saw EOF: reap, maybe respawn, requeue-or-fail."""
        with self._lock:
            if handle is not shard.handle:
                return  # stale receiver of an already-replaced worker
            shard.alive = False
            orphans = list(shard.pending.values())
            shard.pending.clear()
            shard.segments.clear()
            closing = self._closing
            graceful = shard.bye.is_set()
            if shard.last_stats is not None:
                self._retired_stats.append(shard.last_stats)
                shard.last_stats = None
        handle.stop(timeout=5.0)
        # this generation can no longer unlink anything: reap its output
        # slabs by name prefix (router-owned input slabs are untouched;
        # already-mapped client views stay valid — unlink removes the
        # name, not the pages)
        unlink_segments(self.token, role=handle.role)
        if not graceful and not closing:
            self._count("worker_deaths")
            self._events.append("worker_death", None, shard=shard.index,
                                pid=handle.pid, fatal=shard.fatal)
        # crash-loop guard: a worker that keeps dying within seconds of
        # spawning (bad environment, startup fatal) is not respawned
        # forever — the shard is left dead and placement skips it
        fast = time.monotonic() - shard.spawned_at < 5.0
        shard.fast_deaths = shard.fast_deaths + 1 if fast else 0
        crash_looping = shard.fast_deaths >= 3
        if crash_looping:
            self._events.append("worker_disabled", None,
                                shard=shard.index, fatal=shard.fatal)
        if not closing and not crash_looping:
            self._spawn_shard(shard.index)
        for pending in orphans:
            alive_deadline = pending.deadline is None \
                or not pending.deadline.expired()
            if not closing and not pending.requeued and alive_deadline:
                pending.requeued = True
                if self._dispatch(pending):
                    self._count("requeued")
                    pending.timeline.mark("requeued",
                                          from_shard=shard.index)
                    continue
            exc = WorkerCrashed(shard.index, handle.pid,
                                shard.fatal or "")
            pending.timeline.mark("dropped", reason="worker_crashed")
            self._free_inputs(pending)
            self._count("failures")
            if pending.future.set_running_or_notify_cancel():
                pending.future.set_exception(exc)
            else:
                self._count("cancelled")

    # -- placement ---------------------------------------------------------
    def _live(self) -> list[_Shard]:
        """Shards that take new frames (lock held)."""
        return [s for s in self._shards.values() if s.alive]

    def _outstanding(self) -> int:
        """Frames in flight across every shard (lock held)."""
        return sum(len(s.pending) for s in self._shards.values())

    def _place(self, exclude: set) -> "_Shard | None":
        """Pick the least-loaded live shard (lock held).

        Replicating work across idle shards cuts the period; funnelling
        compatible frames into one shard to feed its batch coalescer
        would leave the others idle.  Batches still form inside each
        worker whenever its own pipe holds several batchable frames.
        """
        candidates = [s for s in self._live() if s.index not in exclude]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (len(s.pending), s.index))

    def _dispatch(self, pending: _Pending, admit: bool = False) -> bool:
        """Register + send one frame; retries across shards if a pipe
        turns out to be dead at send time.  False = nobody could take
        it.  ``admit`` enforces the router-wide ``max_queue`` bound in
        the same lock hold that registers the frame, so concurrent
        submitters cannot overshoot it (raises :class:`Overloaded`)."""
        exclude: set[int] = set()
        while True:
            with self._lock:
                if admit:
                    outstanding = self._outstanding()
                    if outstanding >= self._max_queue:
                        raise Overloaded(f"router backlog {outstanding} "
                                         f">= {self._max_queue}")
                shard = self._place(exclude)
                if shard is None:
                    return False
                pending.shard = shard.index
                shard.pending[pending.rid] = pending
                handle = shard.handle
            remaining = pending.deadline.remaining() \
                if pending.deadline is not None else None
            if handle.send(("frame", pending.rid, pending.params,
                            pending.headers, remaining)):
                pending.timeline.mark("shipped", shard=shard.index)
                return True
            with self._lock:
                shard.pending.pop(pending.rid, None)
            exclude.add(shard.index)

    # -- submission --------------------------------------------------------
    def submit(self, param_values, inputs, *,
               deadline_s: float | None = None,
               deadline: Deadline | None = None) -> Future:
        """Enqueue one frame; returns a future resolving to a
        :class:`~repro.serve.service.Frame` (same contract as the
        thread service — :class:`Overloaded` on a full router,
        :class:`ServiceClosed` after :meth:`close`)."""
        if self._closing:
            raise ServiceClosed(f"service {self.name} is closed")
        if deadline is None:
            seconds = deadline_s if deadline_s is not None \
                else self.default_deadline_s
            if seconds is not None:
                deadline = Deadline.after(seconds)
        rid = next(self._rid)
        timeline = Timeline(rid, self._events)
        params = {getattr(p, "name", p): int(v)
                  for p, v in param_values.items()}
        headers: dict[str, tuple] = {}
        leases = []
        for image, array in inputs.items():
            image_name = getattr(image, "name", image)
            array = np.ascontiguousarray(array)
            lease = self._input_alloc.alloc(max(array.nbytes, 1))
            lease.ndarray(array.shape, array.dtype)[...] = array
            self._count("input_copies")
            headers[image_name] = lease.header(array.shape, array.dtype)
            leases.append(lease)
        pending = _Pending(rid, Future(), params, headers, leases,
                           deadline, timeline)
        timeline.mark("submitted")
        try:
            if not self._dispatch(pending, admit=True):
                raise Overloaded("no shard can accept the frame")
        except Overloaded:
            self._free_inputs(pending)
            self._count("rejected")
            timeline.mark("rejected", reason="overloaded")
            raise
        self._count("submitted")
        return pending.future

    def run(self, param_values, inputs, *,
            deadline_s: float | None = None,
            timeout: float | None = None) -> Frame:
        """Blocking convenience: ``submit`` + ``result``."""
        return self.submit(param_values, inputs,
                           deadline_s=deadline_s).result(timeout)

    def _free_inputs(self, pending: _Pending) -> None:
        for lease in pending.leases:
            self._input_alloc.free(lease.key, lease.gen)
        pending.leases = []

    # -- introspection -----------------------------------------------------
    @property
    def workers(self) -> int:
        """Live shard count right now."""
        with self._lock:
            return len(self._live())

    @property
    def backend(self) -> str:
        """Fleet backend state, collapsed: the common state when all
        live shards agree, ``"mixed"`` otherwise."""
        with self._lock:
            states = {s.backend for s in self._live()}
        if not states:
            return INTERPRETER
        return states.pop() if len(states) == 1 else "mixed"

    def wait_ready(self, timeout: float | None = None) -> str:
        """Block until no live shard is still ``building`` (or the
        timeout lapses); returns the collapsed backend state."""
        expiry = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                building = any(s.backend == BUILDING
                               for s in self._live())
            if not building:
                return self.backend
            if expiry is not None and time.monotonic() >= expiry:
                return self.backend
            time.sleep(0.01)

    @property
    def event_log(self) -> EventLog:
        return self._events

    def events(self, request_id=None, kind: str | None = None) -> list:
        return self._events.events(request_id=request_id, kind=kind)

    def _collect_worker_stats(self, timeout: float = 1.0
                              ) -> dict[int, dict]:
        """One stats round-trip per live shard (falling back to the
        shard's last known payload when it does not answer in time)."""
        seq = next(self._stats_seq)
        waits: list[tuple[_Shard, threading.Event]] = []
        with self._lock:
            shards = list(self._shards.values())
        for shard in shards:
            if not shard.alive or shard.handle is None:
                continue
            event = threading.Event()
            with self._lock:
                shard.stats_events[seq] = event
            if shard.handle.send(("stats", seq)):
                waits.append((shard, event))
            else:
                with self._lock:
                    shard.stats_events.pop(seq, None)
        expiry = time.monotonic() + timeout
        payloads: dict[int, dict] = {}
        for shard, event in waits:
            event.wait(max(0.0, expiry - time.monotonic()))
            with self._lock:
                payload = shard.stats_replies.pop(seq, None)
                shard.stats_events.pop(seq, None)
            if payload is None:
                payload = shard.last_stats
            if payload is not None:
                payloads[shard.index] = payload
        return payloads

    def shard_stats(self, timeout: float = 1.0
                    ) -> dict[int, ServiceStats]:
        """Per-shard :class:`ServiceStats`, straight from each worker."""
        return {index: ServiceStats.from_dict(payload["stats"])
                for index, payload in sorted(
                    self._collect_worker_stats(timeout).items())}

    def build_provenance(self, timeout: float = 1.0
                         ) -> dict[int, dict | None]:
        """Per-shard native build provenance: compile seconds,
        compile-cache hit and whether the shard cold-started from the
        persistent schedule store (``loaded_from_store``).  ``None``
        for shards whose native build has not resolved."""
        return {index: payload.get("build")
                for index, payload in sorted(
                    self._collect_worker_stats(timeout).items())}

    def stats(self, timeout: float = 1.0) -> ServiceStats:
        """Cross-shard snapshot with the same shape the thread service
        reports.

        Client-facing counters (submitted/rejected/completed/timeouts/
        failures) and the latency window are the router's own — they
        describe what callers observed, including requeues the workers
        never saw as one frame.  Backend counters, batching, fallbacks,
        pool totals and the per-stage histograms are merged from the
        workers (histograms bucket-exact via :meth:`Histogram.merge`),
        dead/retired shards included via their final payloads.
        """
        payloads = list(self._collect_worker_stats(timeout).values())
        with self._lock:
            payloads += list(self._retired_stats)
            counts = dict(self._counts)
            reasons = dict(self._timeout_reasons)
            inflight = self._outstanding()
        worker_stats = [ServiceStats.from_dict(p["stats"])
                        for p in payloads]
        fallbacks: dict[str, int] = {}
        pool = {"hits": 0, "misses": 0, "outstanding": 0, "idle": 0}
        batches = batched = queue_depth = 0
        for ws in worker_stats:
            batches += ws.batches
            batched += ws.batched_frames
            queue_depth += ws.queue_depth
            for key, value in ws.fallbacks.items():
                fallbacks[key] = fallbacks.get(key, 0) + value
            for key in pool:
                pool[key] += ws.pool.get(key, 0)
        attempts = pool["hits"] + pool["misses"]
        pool["hit_rate"] = pool["hits"] / attempts if attempts else 0.0
        hists = {stage: Histogram() for stage in STAGES}
        for payload in payloads:
            shipped = payload.get("metrics", {}).get("histograms", {})
            for stage, hist in hists.items():
                if f"{stage}_seconds" in shipped:
                    hist.merge(Histogram.from_dict(
                        shipped[f"{stage}_seconds"]))
        return ServiceStats(
            name=self.name,
            backend=self.backend,
            submitted=counts["submitted"],
            completed=counts["completed"],
            rejected=counts["rejected"],
            timeouts=counts["timeouts"],
            failures=counts["failures"],
            cancelled=counts["cancelled"],
            native_frames=counts["native_frames"],
            interp_frames=counts["interp_frames"],
            batches=batches,
            batched_frames=batched,
            fallbacks=fallbacks,
            queue_depth=queue_depth,
            inflight=inflight,
            pool=pool,
            latency=self._latency.snapshot(),
            timeouts_by_reason=reasons,
            stages=stage_summaries(hists),
        )

    def transport(self) -> dict:
        """Transport-layer introspection: slab totals, copy counters,
        fault counters — what the zero-copy and leak tests pin down."""
        with self._lock:
            counts = dict(self._counts)
        copied_out = 0
        for payload in self._collect_worker_stats(timeout=0.5).values():
            copied_out += payload.get("copied_out", 0)
        return {
            "token": self.token,
            "workers": self.workers,
            "input": self._input_alloc.stats(),
            "attached_segments": len(self.segment_map.names()),
            "live_segments": len(live_segments(self.token)),
            "input_copies": counts["input_copies"],
            "copied_out": copied_out,
            "requeued": counts["requeued"],
            "worker_deaths": counts["worker_deaths"],
            "respawns": counts["respawns"],
        }

    @property
    def metrics(self) -> MetricsRegistry:
        """The router's own :class:`MetricsRegistry` (client-facing
        counters, timeouts by reason, fleet gauges), refreshed on
        access; the workers' registries are in :meth:`serve_metrics`."""
        with self._lock:
            counts = dict(self._counts)
            reasons = dict(self._timeout_reasons)
            inflight = self._outstanding()
        for key, value in counts.items():
            self._metrics.set_counter(key, value)
        for reason, value in reasons.items():
            self._metrics.set_counter(f"timeouts_{reason}", value)
        self._metrics.gauge("workers", float(self.workers))
        self._metrics.gauge("inflight", float(inflight))
        self._metrics.gauge("attached_segments",
                            float(len(self.segment_map.names())))
        return self._metrics

    def serve_metrics(self, port: int = 0, host: str = "127.0.0.1"):
        """One Prometheus endpoint for the whole router: router-level
        series under ``repro_serve_router_`` plus every worker's
        registry as ``shard``-labeled series under ``repro_serve_``
        (validated by :func:`~repro.observe.export.
        validate_exposition_text`)."""
        if self._metrics_server is None:
            from repro.observe.export import (
                MetricsServer, render_exposition,
                render_sharded_exposition,
            )

            def render() -> str:
                shards = {str(index): payload.get("metrics", {})
                          for index, payload in sorted(
                              self._collect_worker_stats().items())}
                text = render_exposition(self.metrics.as_dict(),
                                         prefix="repro_serve_router_")
                text += render_sharded_exposition(
                    shards, prefix="repro_serve_", label="shard")
                return text

            self._metrics_server = MetricsServer(render, host=host,
                                                 port=port)
        return self._metrics_server

    # -- flow control ------------------------------------------------------
    def pause(self) -> None:
        """Pause every shard (frames keep arriving and park in each
        worker until :meth:`resume`); a worker respawned meanwhile
        starts paused."""
        with self._lock:
            self._paused = True
        self._broadcast(("pause",))

    def resume(self) -> None:
        with self._lock:
            self._paused = False
        self._broadcast(("resume",))

    @property
    def paused(self) -> bool:
        with self._lock:
            return self._paused

    def release(self) -> None:
        """Ask every shard to drop idle pooled buffers and arenas."""
        self._broadcast(("release",))

    def _broadcast(self, msg: tuple) -> None:
        # pause/resume set the flag first: a worker spawned after that
        # reads it, one spawned before is among the recipients
        with self._lock:
            handles = [s.handle for s in self._shards.values()
                       if s.alive and s.handle is not None]
        for handle in handles:
            handle.send(msg)

    # -- teardown ----------------------------------------------------------
    def close(self, drain: bool = True,
              timeout: float = 20.0) -> None:
        """Shut the fleet down; the no-leaked-segments contract lands
        here.  ``drain=True`` lets every accepted frame finish first;
        ``drain=False`` cancels the backlog.  Idempotent."""
        with self._close_lock:
            already = self._closed
            self._closed = True
            self._closing = True
        if already:
            return
        # refresh final per-worker stats so post-close stats() still
        # reports the merged history
        self._collect_worker_stats(timeout=min(2.0, timeout))
        with self._lock:
            shards = list(self._shards.values())
        if not drain:
            for shard in shards:
                with self._lock:
                    orphans = list(shard.pending.values())
                    shard.pending.clear()
                for pending in orphans:
                    self._free_inputs(pending)
                    if pending.future.cancel():
                        self._count("cancelled")
                    else:
                        # already running at a worker; fail it loudly
                        # rather than leaving the caller hanging
                        if pending.future.set_running_or_notify_cancel():
                            pending.future.set_exception(
                                ServiceClosed("service closed"))
        for shard in shards:
            if shard.handle is not None:
                shard.handle.send(("close", drain))
        expiry = time.monotonic() + timeout
        for shard in shards:
            if shard.handle is not None:
                shard.handle.stop(max(0.1, expiry - time.monotonic()))
        for shard in shards:
            if shard.receiver is not None:
                shard.receiver.join(timeout=5.0)
        # the router owns every unlink: close its own slabs, then sweep
        # whatever any generation of any worker left behind
        self.segment_map.close()
        self._input_alloc.close(unlink=True)
        unlink_segments(self.token)
        if self._metrics_server is not None:
            self._metrics_server.close()
            self._metrics_server = None
        self._events.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardedService({self.name!r}, workers={self.workers}, "
                f"backend={self.backend})")
