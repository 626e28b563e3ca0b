"""The streaming pipeline service: compile once, serve frames forever.

A :class:`PipelineService` turns a :class:`~repro.api.CompiledPipeline`
into a long-lived, thread-based execution service:

* **Amortized compilation** — the native build runs on a background
  thread (warm :class:`~repro.codegen.build.CompileCache` integration);
  frames are served by the interpreter from the first ``submit`` and
  switch to the native artifact the moment it is ready.
* **Bounded ingress** — ``submit`` enqueues into a fixed-capacity queue
  and returns a future; a full queue rejects with
  :class:`~repro.serve.queue.Overloaded` instead of growing a hidden
  backlog.
* **Deadlines** — per-request budgets are enforced cooperatively at
  group/tile boundaries in the interpreter and by wall-clock checks
  around native calls; late frames fail with
  :class:`~repro.serve.deadlines.DeadlineExceeded` and their buffers are
  recycled.
* **Graceful degradation** — build/load failures and runtime native
  errors route frames to the interpreter via
  :class:`~repro.serve.fallback.FallbackPolicy`; every degradation is
  counted and (when tracing is on) recorded as ``repro.observe``
  counters/spans, surfaced by :meth:`PipelineService.stats`.
* **Zero per-frame output allocation** — outputs and full intermediates
  come from a per-service :class:`~repro.runtime.buffers.BufferPool`;
  steady-state serving recycles every buffer (callers hand arrays back
  with :meth:`Frame.release`).
* **Request coalescing** — once the native artifact is serving, a worker
  that dequeues a frame opportunistically pops consecutive *compatible*
  queued requests (same parameter values, same input shapes/dtypes) and
  serves them through one ``NativePipeline.run_batch`` call, amortizing
  the ctypes crossing, thread-team wakeup and arena setup that dominate
  small-frame latency.  Per-request deadlines survive batching: members
  already late are failed before the call, and late members are dropped
  individually on return.  See ``docs/internals.md`` §17.
* **Request-lifecycle observability** — every request is stamped with a
  :class:`~repro.observe.events.Timeline`
  (``submitted → dequeued → coalesced → dispatched → completed |
  dropped``) mirrored into a bounded service
  :class:`~repro.observe.events.EventLog`; per-stage latencies
  (``queue_wait``/``batch_wait``/``execute``/``total``) land in
  mergeable :class:`~repro.observe.metrics.Histogram`\\ s, deadline
  drops are counted *by reason*, and
  :meth:`PipelineService.serve_metrics` exposes everything in
  Prometheus text format.  ``sample_rate=`` promotes a deterministic
  subset of requests to cross-thread Chrome-trace async spans on the
  service tracer.  See ``docs/internals.md`` §18.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.codegen import build as _build
from repro.observe.events import EventLog, Timeline
from repro.observe.metrics import Histogram, LatencyWindow, MetricsRegistry
from repro.observe.trace import Tracer, get_tracer
from repro.runtime.buffers import BufferPool
from repro.runtime.executor import execute_plan
from repro.serve.deadlines import Deadline, DeadlineExceeded
from repro.serve.fallback import (
    BUILDING, INTERPRETER, NATIVE, FallbackPolicy,
)
from repro.serve.queue import (
    BoundedQueue, Overloaded, QueueClosed, ServiceClosed,
)

#: lifecycle stages recorded as service histograms (seconds)
STAGES = ("queue_wait", "batch_wait", "execute", "total")


def check_backend(backend: str) -> None:
    if backend not in ("auto", "interpreter", "native"):
        raise ValueError(f"backend must be 'auto', 'interpreter' or "
                         f"'native', got {backend!r}")


def _timeout_reason(where: str) -> str:
    """Classify a :class:`DeadlineExceeded` checkpoint into the drop-
    reason buckets ``stats()`` reports: expiry while still queued
    (``queue_wait``), behind a paused gate (``paused_at_gate``), after
    an uninterruptible native call (``late_native`` /
    ``late_batch_member``), or at a cooperative checkpoint inside
    interpreter execution (``in_execution``)."""
    if "paused at gate" in where:
        return "paused_at_gate"
    if "after batched native call" in where:
        return "late_batch_member"
    if "after native call" in where:
        return "late_native"
    if where in ("queue wait", "before native call"):
        return "queue_wait"
    return "in_execution"


def stage_summaries(hists: Mapping[str, Histogram]) -> dict:
    """``ServiceStats.stages``: count and mean/p50/p90/p99 in ms of each
    :data:`STAGES` histogram (``hists`` is keyed by stage)."""
    stages = {}
    for stage in STAGES:
        summary = hists[stage].summary()
        stages[stage] = {"count": summary["count"]} | {
            f"{key}_ms": summary[key] * 1000.0
            for key in ("mean", "p50", "p90", "p99")}
    return stages


@dataclass
class Frame:
    """One served frame: the outputs plus how and how fast they came.

    ``outputs`` maps output stage names to arrays leased from the
    service's buffer pool — call :meth:`release` (or use the frame as a
    context manager) once the data has been consumed so steady-state
    serving stays allocation-free.  An unreleased frame is safe, merely
    a pool miss for some later frame.
    """

    outputs: dict[str, np.ndarray]
    backend: str
    latency_s: float
    _pool: BufferPool = field(repr=False)
    _released: bool = field(default=False, repr=False)
    _timeline: Timeline | None = field(default=None, repr=False)

    def timeline(self) -> Timeline | None:
        """This frame's lifecycle :class:`~repro.observe.events.
        Timeline` — ``timeline().durations()`` decomposes the observed
        latency into queue_wait + batch_wait + execute stages that sum
        to total exactly."""
        return self._timeline

    def release(self) -> None:
        """Return the output buffers to the service's pool (idempotent).

        The arrays must not be touched afterwards — the next frame may
        already be writing into them.
        """
        if self._released:
            return
        self._released = True
        arrays = {id(a): a for a in self.outputs.values()}
        self._pool.release(*arrays.values())

    def __enter__(self) -> "Frame":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass(frozen=True)
class ServiceStats:
    """Snapshot of a service's counters, rates and latency distribution.

    ``submitted`` counts only *accepted* enqueues — a rejected
    submission increments ``rejected`` alone, so ``completed /
    submitted`` measures accepted throughput.
    ``batches``/``batched_frames`` count coalesced native dispatches of
    two or more frames and the frames they carried; singleton
    dispatches contribute to neither.

    ``timeouts_by_reason`` splits the aggregate ``timeouts`` count by
    *where* each deadline died (``queue_wait``, ``paused_at_gate``,
    ``late_native``, ``late_batch_member``, ``in_execution``);
    ``stages`` carries per-stage latency summaries (count/mean/p50/p90/
    p99 in ms) derived from the service's histograms.  The snapshot
    round-trips through :meth:`to_dict`/:meth:`from_dict`, so shards can
    ship stats across process boundaries.
    """

    name: str
    backend: str
    submitted: int
    completed: int
    rejected: int
    timeouts: int
    failures: int
    cancelled: int
    native_frames: int
    interp_frames: int
    batches: int
    batched_frames: int
    fallbacks: dict[str, int]
    queue_depth: int
    inflight: int
    pool: dict
    latency: dict
    timeouts_by_reason: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)

    @property
    def rejection_rate(self) -> float:
        offered = self.submitted + self.rejected
        return self.rejected / offered if offered else 0.0

    @property
    def timeout_rate(self) -> float:
        return self.timeouts / self.submitted if self.submitted else 0.0

    @property
    def native_rate(self) -> float:
        return self.native_frames / self.completed if self.completed else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Mean frames per coalesced batch (0.0 while nothing batched)."""
        return self.batched_frames / self.batches if self.batches else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot; :meth:`from_dict` restores it."""
        return {
            "name": self.name, "backend": self.backend,
            "submitted": self.submitted, "completed": self.completed,
            "rejected": self.rejected, "timeouts": self.timeouts,
            "timeouts_by_reason": dict(self.timeouts_by_reason),
            "failures": self.failures, "cancelled": self.cancelled,
            "native_frames": self.native_frames,
            "interp_frames": self.interp_frames,
            "batches": self.batches,
            "batched_frames": self.batched_frames,
            "mean_batch_size": self.mean_batch_size,
            "fallbacks": dict(self.fallbacks),
            "queue_depth": self.queue_depth, "inflight": self.inflight,
            "rejection_rate": self.rejection_rate,
            "timeout_rate": self.timeout_rate,
            "native_rate": self.native_rate,
            "pool": dict(self.pool), "latency": dict(self.latency),
            "stages": {name: dict(summary)
                       for name, summary in self.stages.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceStats":
        """Rebuild a snapshot from :meth:`to_dict` output (derived rates
        are recomputed from the counters, extra keys are ignored)."""
        return cls(
            name=data["name"], backend=data["backend"],
            submitted=data["submitted"], completed=data["completed"],
            rejected=data["rejected"], timeouts=data["timeouts"],
            failures=data["failures"], cancelled=data["cancelled"],
            native_frames=data["native_frames"],
            interp_frames=data["interp_frames"],
            batches=data["batches"],
            batched_frames=data["batched_frames"],
            fallbacks=dict(data.get("fallbacks", {})),
            queue_depth=data["queue_depth"], inflight=data["inflight"],
            pool=dict(data.get("pool", {})),
            latency=dict(data.get("latency", {})),
            timeouts_by_reason=dict(data.get("timeouts_by_reason", {})),
            stages={name: dict(summary)
                    for name, summary in data.get("stages", {}).items()},
        )

    def render(self) -> str:
        """Human-readable multi-line report (``explain()``-style)."""
        fb = ", ".join(f"{k}={v}" for k, v in sorted(self.fallbacks.items())) \
            or "none"
        reasons = ", ".join(
            f"{k}={v}" for k, v in sorted(self.timeouts_by_reason.items()))
        timeouts = f"{self.timeouts} deadline-exceeded"
        if reasons:
            timeouts += f" ({reasons})"
        lat = self.latency
        pool = self.pool
        lines = [
            f"service {self.name}: backend={self.backend}",
            f"  frames: {self.submitted} submitted, "
            f"{self.completed} completed "
            f"({self.native_frames} native / {self.interp_frames} interp), "
            f"{self.inflight} in flight, {self.queue_depth} queued",
            f"  degradations: {self.rejected} rejected "
            f"({self.rejection_rate * 100.0:.1f}%), "
            f"{timeouts}, {self.failures} failed, "
            f"{self.cancelled} cancelled; fallbacks: {fb}",
            f"  batching: {self.batched_frames} frames in "
            f"{self.batches} batches "
            f"(mean size {self.mean_batch_size:.1f})",
            f"  latency: p50 {lat.get('p50_ms', 0.0):.2f} ms, "
            f"p90 {lat.get('p90_ms', 0.0):.2f} ms, "
            f"p99 {lat.get('p99_ms', 0.0):.2f} ms "
            f"(n={lat.get('count', 0)})",
        ]
        if any(summary.get("count") for summary in self.stages.values()):
            lines.append("  stages (p50/p99 ms): " + ", ".join(
                f"{name} {self.stages[name]['p50_ms']:.2f}/"
                f"{self.stages[name]['p99_ms']:.2f}"
                for name in STAGES if name in self.stages))
        lines.append(
            f"  pool: {pool.get('hits', 0)} hits / "
            f"{pool.get('misses', 0)} misses "
            f"({pool.get('hit_rate', 0.0) * 100.0:.1f}%), "
            f"{pool.get('outstanding', 0)} leased, "
            f"{pool.get('idle', 0)} idle")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class _Request:
    """One frame submission: what to run, its budget and its future."""

    __slots__ = ("params", "inputs", "deadline", "future", "timeline",
                 "submitted_at")

    def __init__(self, params, inputs, deadline, future, timeline):
        self.params = params
        self.inputs = inputs
        self.deadline = deadline
        self.future = future
        self.timeline = timeline
        self.submitted_at = time.monotonic()


class FrameRunner:
    """The execution half of both serving tiers.

    Everything between "this frame was picked" and "its future is
    resolved" lives here once: deadline checkpoints, native (one
    ``run_batch`` per coalesced window) or interpreter dispatch, the
    background build and :class:`~repro.serve.fallback.FallbackPolicy`,
    late-member drops, counters, stage histograms and timeline marks.
    A feed forms windows (:meth:`batching_open`, :meth:`batchable`) and
    hands them to :meth:`run_window`: :class:`PipelineService` from a
    bounded queue via consumer threads, a
    :class:`~repro.serve.router.ShardedService` worker from its command
    pipe (:mod:`repro.serve.worker`).  Thread-safe.
    """

    def __init__(self, plan, name: str, pool: BufferPool, *,
                 backend: str = "auto",
                 n_threads: int = 1,
                 max_batch: int = 8,
                 events: EventLog | None = None,
                 tracer: Tracer | None = None,
                 build_kwargs: Mapping | None = None):
        self.plan = plan
        self.name = name
        self.pool = pool
        self.max_batch = max_batch
        self._n_threads = n_threads
        self._tracer = tracer if tracer is not None else get_tracer()
        self._events = events
        self._latency = LatencyWindow()
        self._metrics = MetricsRegistry()
        self._stage_hists = {
            stage: self._metrics.histogram(f"{stage}_seconds")
            for stage in STAGES}
        self._timeout_reasons: dict[str, int] = {}
        self._counts_lock = threading.Lock()
        self._counts = {
            "submitted": 0, "completed": 0, "rejected": 0,
            "timeouts": 0, "failures": 0, "cancelled": 0,
            "native_frames": 0, "interp_frames": 0, "inflight": 0,
            "batches": 0, "batched_frames": 0,
        }
        self._policy = FallbackPolicy(
            native_enabled=backend != "interpreter",
            on_transition=self._on_backend_transition)
        self._build_handle: _build.AsyncBuild | None = None
        if backend != "interpreter":
            # module attribute lookup on purpose — fault-injection tests
            # monkeypatch ``repro.codegen.build.build_native``
            self._build_handle = _build.build_native_async(
                plan, name, **dict(build_kwargs or {}))

    # -- bookkeeping -------------------------------------------------------
    def count(self, key: str, n: int = 1) -> None:
        """Bump a per-frame counter (mirrored into the registry only by
        :meth:`refresh_metrics`, never double-booked on the hot path)."""
        with self._counts_lock:
            self._counts[key] = self._counts.get(key, 0) + n
        self._tracer.count(f"serve.{self.name}.{key}", n)

    def _on_backend_transition(self, transition: str, fields: dict) -> None:
        """Mirror fallback state-machine transitions into the event log
        (as ``backend`` events) and the metrics registry."""
        if self._events is not None:
            self._events.append("backend", None, transition=transition,
                                **fields)
        self._metrics.count(f"backend_{transition}")

    def fail_deadline(self, request: _Request,
                      exc: DeadlineExceeded) -> None:
        """Count (by reason), stamp and fail one deadline-dropped
        request; the request's timeline rides on the exception as
        ``exc.timeline`` so callers can still ask where the time went."""
        reason = _timeout_reason(exc.where)
        with self._counts_lock:
            self._counts["timeouts"] = self._counts.get("timeouts", 0) + 1
            self._timeout_reasons[reason] = \
                self._timeout_reasons.get(reason, 0) + 1
        self._tracer.count(f"serve.{self.name}.timeouts")
        timeline = request.timeline
        timeline.mark("dropped", reason=reason, where=exc.where)
        if timeline.sampled:
            self._tracer.async_end(f"serve.{self.name}.request",
                                   timeline.request_id, cat="serve",
                                   outcome="dropped", reason=reason)
        exc.timeline = timeline
        request.future.set_exception(exc)

    def expire_at_gate(self, request: _Request) -> None:
        """Fail a request whose deadline ran out while the caller held it
        behind a paused gate."""
        if self._claim(request):
            self.fail_deadline(request, DeadlineExceeded(
                "paused at gate", -request.deadline.remaining()))

    def _record_completion(self, request: _Request, backend: str,
                           latency: float) -> None:
        """Stamp completion and feed the per-stage histograms."""
        self._latency.record(latency)
        timeline = request.timeline
        timeline.mark("completed", backend=backend)
        durations = timeline.durations()
        for stage, hist in self._stage_hists.items():
            if stage in durations:
                hist.observe(durations[stage])
        if timeline.sampled:
            self._tracer.async_end(f"serve.{self.name}.request",
                                   timeline.request_id, cat="serve",
                                   outcome="completed", backend=backend)

    def _poll_build(self) -> None:
        """Fold a finished background build into the fallback policy."""
        handle = self._build_handle
        if handle is None or not handle.done():
            return
        exc = handle.exception()
        native = handle.result() if exc is None else None
        # the policy ingests the outcome exactly once even when several
        # callers race here, so the counter below cannot double-count
        reason = self._policy.note_build_resolved(native, exc)
        if reason is not None:
            self.count("fallbacks")  # mirrored detail in policy.fallbacks
        self._build_handle = None  # resolved: later polls return at once

    # -- forming a window --------------------------------------------------
    def mark_dequeued(self, request: _Request) -> None:
        request.timeline.mark("dequeued")
        if request.timeline.sampled:
            self._tracer.async_instant(
                f"serve.{self.name}.request",
                request.timeline.request_id, cat="serve", at="dequeued")

    def batching_open(self) -> bool:
        """May the caller coalesce a window now?

        Coalescing only pays when the *native* batch entry point will
        serve the frames — interpreter batching would serialize frames
        that parallel workers could overlap — so the window stays shut
        until the policy is in the native state.
        """
        if self.max_batch < 2:
            return False
        self._poll_build()
        backend, _ = self._policy.backend_for_frame()
        return backend == NATIVE

    @staticmethod
    def batchable(request: _Request, other: _Request) -> bool:
        """Same param values and same input shapes/dtypes?"""
        if other.params != request.params:
            return False
        if other.inputs.keys() != request.inputs.keys():
            return False
        for image, array in request.inputs.items():
            candidate = other.inputs[image]
            if np.shape(candidate) != np.shape(array):
                return False
            if (getattr(candidate, "dtype", None)
                    != getattr(array, "dtype", None)):
                return False
        return True

    # -- execution ---------------------------------------------------------
    def run_window(self, requests: list) -> None:
        """Serve one frame or one coalesced window (at most
        ``max_batch`` mutually :meth:`batchable` requests, already
        marked dequeued); every future is resolved on return."""
        if len(requests) > 1:
            batch_id = requests[0].timeline.request_id
            for member in requests:
                member.timeline.mark("coalesced", batch_id=batch_id,
                                     size=len(requests))
        self.count("inflight", len(requests))
        try:
            if len(requests) == 1:
                if self._claim(requests[0]):
                    self._execute(requests[0])
            else:
                self._handle_batch(requests)
        finally:
            self.count("inflight", -len(requests))

    def _claim(self, request: _Request) -> bool:
        """Move the future to RUNNING; a cancelled one is counted and
        dropped instead (False)."""
        if request.future.set_running_or_notify_cancel():
            return True
        self.count("cancelled")
        request.timeline.mark("dropped", reason="cancelled")
        return False

    def _handle_batch(self, requests: list) -> None:
        """Serve coalesced requests through one native batch call.

        Deadline semantics: members already expired fail before the
        call; the call itself cannot be interrupted, so on return each
        member's deadline is re-checked and *late members are dropped
        individually* — one slow batch never silently extends anyone's
        budget.  If the native call fails (or the window closed between
        take and dispatch), every claimed member is re-served through
        the ordinary single-frame path with its own fallback handling.
        """
        ready = []
        for request in filter(self._claim, requests):
            deadline = request.deadline
            if deadline is not None and deadline.expired():
                self.fail_deadline(request, DeadlineExceeded(
                    "queue wait", -deadline.remaining()))
            else:
                ready.append(request)
        if not ready:
            return
        self._poll_build()
        backend, native = self._policy.backend_for_frame()
        if len(ready) == 1 or backend != NATIVE:
            for request in ready:
                self._execute(request)
            return
        for request in ready:
            request.timeline.mark("dispatched", backend=NATIVE,
                                  batch_size=len(ready))
        try:
            with self._tracer.span(f"serve.{self.name}.batch",
                                   cat="serve", n_frames=len(ready)):
                outputs_list = native.run_batch(
                    ready[0].params,
                    [request.inputs for request in ready],
                    n_threads=self._n_threads, tracer=self._tracer,
                    pool=self.pool)
            self._policy.note_native_ok()
        except Exception as exc:
            # crash-free native failure: re-serve each member alone so
            # a bad frame only sinks itself
            self._policy.note_native_error(exc)
            self.count("fallbacks")
            for request in ready:
                self._execute(request)
            return
        self.count("batches")
        self.count("batched_frames", len(ready))
        now = time.monotonic()
        done = 0
        for request, outputs in zip(ready, outputs_list):
            deadline = request.deadline
            if deadline is not None and deadline.expired():
                self._recycle(outputs)
                self.fail_deadline(request, DeadlineExceeded(
                    "after batched native call", -deadline.remaining()))
                continue
            latency = now - request.submitted_at
            self._record_completion(request, NATIVE, latency)
            done += 1
            request.future.set_result(
                Frame(outputs, NATIVE, latency, self.pool,
                      _timeline=request.timeline))
        if done:
            self.count("completed", done)
            self.count("native_frames", done)

    def _execute(self, request: _Request) -> None:
        """Run one claimed request (its future is already RUNNING)."""
        future = request.future
        deadline = request.deadline
        with self._tracer.span(f"serve.{self.name}.frame", cat="serve"):
            self._poll_build()
            backend, native = self._policy.backend_for_frame()
            try:
                if deadline is not None:
                    deadline.check("queue wait")
                request.timeline.mark("dispatched", backend=backend)
                if backend == NATIVE:
                    try:
                        outputs = self._run_native(native, request)
                        self._policy.note_native_ok()
                    except DeadlineExceeded:
                        raise
                    except Exception as exc:
                        # crash-free native failure: re-serve the frame
                        # with the interpreter
                        self._policy.note_native_error(exc)
                        self.count("fallbacks")
                        backend = INTERPRETER
                        request.timeline.mark("dispatched",
                                              backend=INTERPRETER,
                                              retry=True)
                        outputs = self._run_interp(request)
                else:
                    outputs = self._run_interp(request)
            except DeadlineExceeded as exc:
                self.fail_deadline(request, exc)
                return
            except Exception as exc:
                self.count("failures")
                request.timeline.mark(
                    "dropped", reason="error",
                    error=f"{type(exc).__name__}: {exc}")
                if request.timeline.sampled:
                    self._tracer.async_end(
                        f"serve.{self.name}.request",
                        request.timeline.request_id, cat="serve",
                        outcome="error")
                future.set_exception(exc)
                return
        latency = time.monotonic() - request.submitted_at
        self._record_completion(request, backend, latency)
        self.count("completed")
        self.count("native_frames" if backend == NATIVE
                   else "interp_frames")
        future.set_result(Frame(outputs, backend, latency, self.pool,
                                _timeline=request.timeline))

    def _run_native(self, native, request: _Request) -> dict:
        deadline = request.deadline
        if deadline is not None:
            deadline.check("before native call")
        outputs = native(request.params, request.inputs,
                         n_threads=self._n_threads, tracer=self._tracer,
                         pool=self.pool)
        if deadline is not None and deadline.expired():
            # the native call cannot be interrupted mid-flight; a late
            # frame is dropped and its buffers recycled immediately
            self._recycle(outputs)
            raise DeadlineExceeded("after native call",
                                   -deadline.remaining())
        return outputs

    def _recycle(self, outputs: dict) -> None:
        """Hand a dropped frame's outputs back to the pool (dedup by id —
        two outputs may alias one stage array)."""
        self.pool.release(*{id(a): a for a in outputs.values()}.values())

    def _run_interp(self, request: _Request) -> dict:
        return execute_plan(self.plan, request.params, request.inputs,
                            n_threads=self._n_threads,
                            tracer=self._tracer,
                            deadline=request.deadline,
                            out_pool=self.pool)

    # -- introspection -----------------------------------------------------
    @property
    def backend(self) -> str:
        """Current backend state: ``building``/``native``/``interpreter``."""
        self._poll_build()
        return self._policy.state

    def wait_ready(self, timeout: float | None = None) -> str:
        """Block until the background build resolves (ready or failed);
        returns the resulting backend state.  Interpreter-only runners
        return immediately."""
        handle = self._build_handle
        if handle is not None:
            handle.wait(timeout)
        return self.backend

    def build_provenance(self) -> dict | None:
        """How this runner's native artifact was obtained, or ``None``
        while no native pipeline is resolved: compile seconds,
        compile-cache hit, artifact key, and whether the artifact was
        cold-started from the persistent schedule store
        (``loaded_from_store`` — no codegen, no C compiler run)."""
        self._poll_build()
        native = self._policy.native
        if native is None:
            return None
        info = getattr(native, "build_info", None)
        return {
            "key": info.key if info is not None else None,
            "compile_s": info.compile_s if info is not None else None,
            "cache_hit": info.cache_hit if info is not None else None,
            "loaded_from_store": getattr(native, "loaded_from_store",
                                         False),
        }

    def refresh_metrics(self, **gauges: float) -> MetricsRegistry:
        """The registry, synced from the hot-path counters (kept in
        ``self._counts`` alone, one lock on the serving path; idempotent
        via ``set_counter``) plus the feed's own ``gauges``."""
        self._poll_build()
        metrics = self._metrics
        with self._counts_lock:
            counts = dict(self._counts)
            reasons = dict(self._timeout_reasons)
        inflight = counts.pop("inflight", 0)
        for key, value in counts.items():
            metrics.set_counter(key, value)
        for reason, value in reasons.items():
            metrics.set_counter(f"timeouts_{reason}", value)
        for key, value in gauges.items():
            metrics.gauge(key, float(value))
        metrics.gauge("inflight", float(inflight))
        state = self._policy.state
        for candidate in (BUILDING, NATIVE, INTERPRETER):
            metrics.gauge(f"backend_is_{candidate}",
                          1.0 if state == candidate else 0.0)
        pool = self.pool.stats()
        for key in ("hits", "misses", "outstanding", "idle"):
            metrics.gauge(f"pool_{key}", float(pool.get(key, 0)))
        return metrics

    def snapshot(self, queue_depth: int) -> ServiceStats:
        """Counters, rates, latency percentiles and pool state;
        ``queue_depth`` is the feed's backlog."""
        self._poll_build()
        with self._counts_lock:
            counts = dict(self._counts)
            reasons = dict(self._timeout_reasons)
        return ServiceStats(
            name=self.name,
            backend=self._policy.state,
            submitted=counts["submitted"],
            completed=counts["completed"],
            rejected=counts["rejected"],
            timeouts=counts["timeouts"],
            failures=counts["failures"],
            cancelled=counts["cancelled"],
            native_frames=counts["native_frames"],
            interp_frames=counts["interp_frames"],
            batches=counts["batches"],
            batched_frames=counts["batched_frames"],
            fallbacks=self._policy.fallbacks(),
            queue_depth=queue_depth,
            inflight=counts["inflight"],
            pool=self.pool.stats(),
            latency=self._latency.snapshot(),
            timeouts_by_reason=reasons,
            stages=stage_summaries(self._stage_hists),
        )

    def release(self) -> None:
        """Drop idle pooled buffers and the native scratch arenas.

        Safe to call at any time, including under traffic: in-flight
        frames keep their leased arrays, the pool merely re-allocates on
        the next acquire, and the native arena re-grows on the next
        call.
        """
        self.pool.drain()
        native = self._policy.native
        if native is not None and hasattr(native, "release"):
            native.release()


class PipelineService(FrameRunner):
    """A thread-based streaming execution service for one pipeline: a
    :class:`FrameRunner` fed by a bounded queue and consumer threads.

    Parameters
    ----------
    compiled:
        The :class:`~repro.api.CompiledPipeline` to serve (anything with
        ``.plan`` and ``.name`` works).
    workers:
        Consumer threads draining the submission queue.  Uninstrumented
        native artifacts are re-entrant, so each worker runs its own
        frame (or coalesced batch) in the library at the same time as
        the others: workers parallelize *across* frames, ``n_threads``
        *within* one.  Only instrumented builds serialize their calls
        on a per-artifact lock (see
        :attr:`repro.codegen.build.NativePipeline.needs_call_lock`).
    max_queue:
        Submission queue capacity; a full queue rejects with
        :class:`Overloaded`.
    backend:
        ``"auto"`` (background native build, interpreter until ready),
        ``"interpreter"`` (never build), or ``"native"`` (like auto —
        still degrades gracefully if the build fails).
    default_deadline_s:
        Deadline applied to submissions that do not carry their own.
    max_batch:
        Upper bound on frames coalesced into one native batch call
        (``1`` disables coalescing: frames are then always dispatched
        one at a time).  The batching window is whatever the bounded
        queue already holds — no artificial delay is added.
    sample_rate:
        Fraction (0..1) of requests promoted to full cross-thread
        Chrome-trace async spans on the service tracer (deterministic:
        every ``round(1/rate)``-th request).  ``0`` (default) disables
        trace promotion; lifecycle events are captured regardless.
    events_path:
        Optional JSON-lines file every lifecycle event is streamed to
        as it happens (the full history, beyond the service's bounded
        :class:`~repro.observe.events.EventLog` ring).
    build_kwargs:
        Forwarded to :func:`repro.codegen.build.build_native`
        (``vectorize``, ``instrument``, ``cache_dir``, ...).
    """

    def __init__(self, compiled, *,
                 workers: int = 2,
                 max_queue: int = 64,
                 backend: str = "auto",
                 default_deadline_s: float | None = None,
                 n_threads: int = 1,
                 max_batch: int = 8,
                 sample_rate: float = 0.0,
                 events_path: str | Path | None = None,
                 build_kwargs: Mapping | None = None,
                 name: str | None = None,
                 tracer: Tracer | None = None):
        check_backend(backend)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        super().__init__(
            compiled.plan, name or getattr(compiled, "name", "pipeline"),
            BufferPool(), backend=backend, n_threads=n_threads,
            max_batch=max_batch, events=EventLog(sink=events_path),
            tracer=tracer, build_kwargs=build_kwargs)
        self.backend_mode = backend
        self.default_deadline_s = default_deadline_s
        self._queue = BoundedQueue(max_queue)
        self._gate = threading.Event()  # cleared = paused
        self._gate.set()
        self._sample_every = round(1.0 / sample_rate) if sample_rate \
            else 0
        self._rid = itertools.count()
        self._metrics_server = None
        self._closed = False
        self._close_lock = threading.Lock()

        self._workers = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"repro-serve-{self.name}-{i}")
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission --------------------------------------------------------
    def submit(self, param_values, inputs, *,
               deadline_s: float | None = None,
               deadline: Deadline | None = None) -> Future:
        """Enqueue one frame; returns a future resolving to a
        :class:`Frame`.

        Raises :class:`Overloaded` when the queue is full (the frame was
        *not* accepted) and :class:`ServiceClosed` after :meth:`close`.
        The future fails with :class:`DeadlineExceeded` on timeout or
        with the execution error on failure.
        """
        if deadline is None:
            seconds = deadline_s if deadline_s is not None \
                else self.default_deadline_s
            if seconds is not None:
                deadline = Deadline.after(seconds)
        rid = next(self._rid)
        sampled = bool(self._sample_every) \
            and rid % self._sample_every == 0
        timeline = Timeline(rid, self._events, sampled=sampled)
        future: Future = Future()
        request = _Request(dict(param_values), dict(inputs), deadline,
                           future, timeline)
        timeline.mark("submitted")
        if sampled:
            self._tracer.async_begin(f"serve.{self.name}.request", rid,
                                     cat="serve")
        # count submitted only once the queue has the request — a
        # rejected submission must inflate neither submitted nor the
        # completed/submitted throughput ratio
        try:
            self._queue.put(request)
        except (Overloaded, ServiceClosed) as exc:
            self.count("rejected")
            reason = "overloaded" if isinstance(exc, Overloaded) \
                else "closed"
            timeline.mark("rejected", reason=reason)
            if sampled:
                self._tracer.async_end(f"serve.{self.name}.request", rid,
                                       cat="serve", outcome="rejected")
            raise
        self.count("submitted")
        return future

    def run(self, param_values, inputs, *,
            deadline_s: float | None = None,
            timeout: float | None = None) -> Frame:
        """Blocking convenience: ``submit`` + ``result``."""
        return self.submit(param_values, inputs,
                           deadline_s=deadline_s).result(timeout)

    # -- worker loop -------------------------------------------------------
    def _worker_loop(self) -> None:
        self._tracer.name_thread()  # label in chrome://tracing exports
        while True:
            self._gate.wait()
            try:
                request = self._queue.get()
            except QueueClosed:
                return
            self.mark_dequeued(request)
            if not self._pass_gate(request):
                continue
            window = [request]
            if self.batching_open():
                window += self._queue.take_while(
                    lambda other: self.batchable(request, other),
                    self.max_batch)
                for member in window[1:]:
                    self.mark_dequeued(member)
            self.run_window(window)

    def _pass_gate(self, request: _Request) -> bool:
        """Wait out a pause *without* letting the request's deadline burn
        silently.

        A worker can dequeue a frame and then find the service paused.
        Blocking on the bare gate here would strand an accepted frame
        whose deadline keeps ticking; instead the wait is bounded by the
        deadline, and an expired request fails promptly with
        :class:`DeadlineExceeded` so the caller learns within its budget.
        Returns False when the frame was failed (the worker moves on).
        """
        deadline = request.deadline
        if deadline is None:
            self._gate.wait()
            return True
        while not self._gate.wait(deadline.remaining()):
            if deadline.expired():
                self.expire_at_gate(request)
                return False
        # the gate reopened in time; execution re-checks the deadline
        # before running ("queue wait"), covering the reopened-too-late
        # window as well
        return True

    # -- flow control ------------------------------------------------------
    def pause(self) -> None:
        """Stop starting new frames (submissions still queue up)."""
        self._gate.clear()

    def resume(self) -> None:
        self._gate.set()

    @property
    def paused(self) -> bool:
        return not self._gate.is_set()

    # -- introspection -----------------------------------------------------
    @property
    def event_log(self) -> EventLog:
        """The service's lifecycle :class:`EventLog` ring."""
        return self._events

    @property
    def metrics(self) -> MetricsRegistry:
        """The service's :class:`MetricsRegistry` (counters + stage
        histograms), refreshed from the hot-path counters on access;
        rendered by :meth:`serve_metrics`."""
        return self.refresh_metrics(
            queue_depth=len(self._queue),
            queue_max_depth=self._queue.max_depth,
            paused=0.0 if self._gate.is_set() else 1.0)

    def events(self, request_id=None, kind: str | None = None) -> list:
        """Filtered snapshot of the event ring (see
        :meth:`EventLog.events`)."""
        return self._events.events(request_id=request_id, kind=kind)

    def serve_metrics(self, port: int = 0, host: str = "127.0.0.1"):
        """Start (or return the already-running) stdlib HTTP endpoint
        exposing this service's metrics in Prometheus text format.

        ``port=0`` picks an ephemeral port — read it back from the
        returned server's ``.port``/``.url``.  The server runs on a
        daemon thread and is shut down by :meth:`close`.
        """
        if self._metrics_server is None:
            from repro.observe.export import MetricsServer

            self._metrics_server = MetricsServer(
                lambda: self.metrics.expose_text(prefix="repro_serve_"),
                host=host, port=port)
        return self._metrics_server

    def stats(self) -> ServiceStats:
        """Snapshot counters, rates, latency percentiles and pool state."""
        return self.snapshot(len(self._queue))

    # -- resource management ----------------------------------------------
    def close(self, drain: bool = True,
              timeout: float | None = None) -> None:
        """Shut down: reject new submissions, then stop the workers.

        ``drain=True`` finishes every accepted frame first;
        ``drain=False`` cancels the queued backlog (their futures are
        cancelled).  Idempotent; in-flight frames always complete.
        """
        with self._close_lock:
            already = self._closed
            self._closed = True
        abandoned = self._queue.close(drain=drain)
        self._gate.set()  # wake paused workers so they can exit
        for request in abandoned:
            if request.future.cancel():
                self.count("cancelled")
        if not already:
            for worker in self._workers:
                worker.join(timeout)
            if self._metrics_server is not None:
                self._metrics_server.close()
            self._events.close()

    @property
    def closed(self) -> bool:
        return self._queue.closed

    def __enter__(self) -> "PipelineService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"PipelineService({self.name!r}, backend={self.backend}, "
                f"queue={len(self._queue)}/{self._queue.maxsize})")
