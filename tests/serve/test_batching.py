"""Batched execution and request coalescing.

Three layers under test:

* ``NativePipeline.run_batch`` / ``CompiledPipeline.run_batch`` — the
  multi-frame entry points must be bit-identical to N sequential
  single-frame calls (the whole point of emitting one specialized body
  looped over frames instead of a separate batched schedule);
* ``BoundedQueue`` — the absolute-expiry ``get`` timeout (regression:
  a stolen notify used to restart the clock) and the ``take_while``
  coalescing window;
* ``PipelineService`` — opportunistic coalescing of compatible queued
  requests into one native batch call, with per-member deadlines
  enforced before and after the call, plus the pause-gate deadline
  regression (a paused service used to strand dequeued frames while
  their deadlines burned) and the submitted-counts-accepted-only stats
  fix.

Service-level tests inject a fake native via the same
``repro.codegen.build.build_native`` monkeypatch point the fault tests
use, so they run deterministically without a compiler.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.codegen import build as build_mod
from repro.codegen.build import compiler_available
from repro.runtime.buffers import BufferPool
from repro.runtime.executor import execute_plan
from repro.serve import DeadlineExceeded, PipelineService
from repro.serve.queue import BoundedQueue

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler found")


# ---------------------------------------------------------------------------
# run_batch entry points
# ---------------------------------------------------------------------------

def test_interpreter_run_batch_bit_identical(served):
    frames = [served.input_for(seed) for seed in range(4)]
    seq = [served.compiled(served.values, frame) for frame in frames]
    bat = served.compiled.run_batch(served.values, frames)
    assert len(bat) == len(frames)
    for a, b in zip(seq, bat):
        assert a.keys() == b.keys()
        for key in a:
            assert np.array_equal(a[key], b[key])


def test_interpreter_run_batch_empty(served):
    assert served.compiled.run_batch(served.values, []) == []


@needs_cc
def test_native_run_batch_bit_identical(served):
    native = served.compiled.build()
    frames = [served.input_for(seed) for seed in range(5)]
    seq = [native(served.values, frame) for frame in frames]
    bat = native.run_batch(served.values, frames)
    for i, (a, b) in enumerate(zip(seq, bat)):
        for key in a:
            assert np.array_equal(a[key], b[key]), f"frame {i}, {key}"


@needs_cc
def test_native_run_batch_pool_accounting(served):
    """Every output of every frame is leased from the pool; releasing
    them all returns the pool to zero outstanding."""
    native = served.compiled.build()
    pool = BufferPool()
    frames = [served.input_for(seed) for seed in range(3)]
    results = native.run_batch(served.values, frames, pool=pool)
    n_outputs = sum(len({id(a) for a in r.values()}) for r in results)
    assert pool.stats()["outstanding"] == n_outputs
    for result in results:
        pool.release(*{id(a): a for a in result.values()}.values())
    assert pool.stats()["outstanding"] == 0


@needs_cc
def test_native_run_batch_validates_like_single(served):
    native = served.compiled.build()
    good = served.input_for(0)
    bad = {served.image: np.zeros((3, 3), dtype=np.float32)}
    with pytest.raises(ValueError, match="shape"):
        native.run_batch(served.values, [good, bad])
    with pytest.raises(ValueError, match="n_threads"):
        native.run_batch(served.values, [good], n_threads=0)


# ---------------------------------------------------------------------------
# BoundedQueue: timeout budget + coalescing window
# ---------------------------------------------------------------------------

def test_get_timeout_survives_spurious_wakeups():
    """Regression: ``get(timeout)`` used to hand the *full* timeout to
    every ``Condition.wait``, so each wakeup that found the queue empty
    (a stolen notify, a spurious wakeup) restarted the clock and the
    call could block far past its budget.  A waker that repeatedly
    notifies the condition without enqueuing anything must not extend
    the wait."""
    queue = BoundedQueue(4)
    stop = threading.Event()

    def waker() -> None:
        # bounded so the broken (clock-restarting) implementation makes
        # the test fail on elapsed time instead of hanging forever
        for _ in range(60):
            if stop.is_set():
                return
            with queue._lock:
                queue._not_empty.notify_all()
            time.sleep(0.02)

    thread = threading.Thread(target=waker)
    thread.start()
    try:
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            queue.get(timeout=0.25)
        elapsed = time.monotonic() - start
    finally:
        stop.set()
        thread.join()
    assert 0.2 <= elapsed < 1.0, elapsed


def test_get_timeout_bounded_under_competing_consumers():
    """Multi-consumer variant: sibling consumers racing for every item
    may steal the victim's notifies, but the victim's call still returns
    (item or TimeoutError) within its budget plus scheduling slack."""
    queue = BoundedQueue(8)
    stop = threading.Event()
    budget = 0.3

    def thief() -> None:
        while not stop.is_set():
            try:
                queue.get(timeout=0.005)
            except TimeoutError:
                pass

    thieves = [threading.Thread(target=thief) for _ in range(2)]
    for thread in thieves:
        thread.start()

    def producer() -> None:
        for _ in range(12):
            if stop.is_set():
                return
            try:
                queue.put(object())
            except Exception:
                pass
            time.sleep(0.07)

    feeder = threading.Thread(target=producer)
    feeder.start()
    try:
        start = time.monotonic()
        try:
            queue.get(timeout=budget)
        except TimeoutError:
            pass
        elapsed = time.monotonic() - start
    finally:
        stop.set()
        feeder.join()
        for thread in thieves:
            thread.join()
    assert elapsed < budget + 0.4, elapsed


def test_get_zero_timeout_on_empty_queue_returns_immediately():
    queue = BoundedQueue(2)
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        queue.get(timeout=0.0)
    assert time.monotonic() - start < 0.1


def test_take_while_pops_matching_head_run_only():
    queue = BoundedQueue(8)
    for item in [2, 4, 6, 7, 8]:
        queue.put(item)
    head = queue.get()
    assert head == 2
    taken = queue.take_while(lambda n: n % 2 == 0, max_n=8)
    # stops at the first mismatch; 8 stays queued behind 7
    assert taken == [4, 6]
    assert len(queue) == 2


def test_take_while_respects_max_n_and_empty_queue():
    queue = BoundedQueue(8)
    assert queue.take_while(lambda _: True, max_n=4) == []
    for item in range(5):
        queue.put(item)
    taken = queue.take_while(lambda _: True, max_n=3)
    assert taken == [0, 1]  # the worker already holds one: max_n - 1
    assert len(queue) == 3


# ---------------------------------------------------------------------------
# Service-level coalescing (fake native)
# ---------------------------------------------------------------------------

class BatchNative:
    """Native stand-in: interpreter semantics, call log."""

    def __init__(self, plan, delay_first: float = 0.0):
        self.plan = plan
        self.calls: list[int] = []  # frames per dispatch
        self._delay_first = delay_first

    def __call__(self, params, inputs, *, n_threads=1, tracer=None,
                 pool=None):
        if self._delay_first and not self.calls:
            self.calls.append(1)
            time.sleep(self._delay_first)
        else:
            self.calls.append(1)
        return execute_plan(self.plan, params, inputs, out_pool=pool)

    def run_batch(self, params, inputs_list, *, n_threads=1, tracer=None,
                  pool=None):
        self.calls.append(len(inputs_list))
        return [execute_plan(self.plan, params, inputs, out_pool=pool)
                for inputs in inputs_list]


def batch_service(served, monkeypatch, **kw):
    native = BatchNative(served.compiled.plan,
                         delay_first=kw.pop("delay_first", 0.0))
    monkeypatch.setattr(build_mod, "build_native",
                        lambda plan, name="pipeline", **k: native)
    kw.setdefault("workers", 1)
    service = PipelineService(served.compiled, backend="auto", **kw)
    assert service.wait_ready(30) == "native"
    return service, native


def test_service_coalesces_compatible_requests(served, monkeypatch):
    service, native = batch_service(served, monkeypatch)
    with service:
        service.pause()
        inputs = [served.input_for(seed) for seed in range(4)]
        futures = [service.submit(served.values, frame)
                   for frame in inputs]
        service.resume()
        for future, frame_in in zip(futures, inputs):
            with future.result(30) as frame:
                assert frame.backend == "native"
                assert np.array_equal(frame.outputs[served.out],
                                      served.direct(frame_in))
        stats = service.stats()
    # at least one dispatch carried >= 2 frames through run_batch
    assert max(native.calls) >= 2
    assert stats.batches >= 1
    assert stats.batched_frames >= 2
    assert stats.mean_batch_size > 1.0
    assert stats.completed == 4 and stats.native_frames == 4
    assert stats.to_dict()["batched_frames"] == stats.batched_frames
    assert "batches" in stats.render()


def test_incompatible_params_split_the_batch(served, monkeypatch):
    """A request with different parameter values fences the coalescing
    window — FIFO order is preserved, nothing jumps the fence."""
    service, native = batch_service(served, monkeypatch)
    other_values = dict(served.values)
    (first_param, first_value), *_ = other_values.items()
    other_values[first_param] = first_value - 1
    rng = np.random.default_rng(99)
    other_input = {served.image: rng.random(
        (served.rows + 1, served.cols + 2), dtype=np.float32)}
    with service:
        service.pause()
        same = [service.submit(served.values, served.input_for(seed))
                for seed in range(3)]
        fence = service.submit(other_values, other_input)
        tail = service.submit(served.values, served.input_for(7))
        service.resume()
        for future in [*same, fence, tail]:
            future.result(30).release()
        stats = service.stats()
    # the three compatible head requests batched; the fence and the
    # request behind it ran alone
    assert 3 in native.calls
    assert stats.batched_frames == 3 and stats.batches == 1
    assert stats.completed == 5


def test_max_batch_caps_the_window(served, monkeypatch):
    service, native = batch_service(served, monkeypatch, max_batch=2)
    with service:
        service.pause()
        futures = [service.submit(served.values, served.input_for(seed))
                   for seed in range(5)]
        service.resume()
        for future in futures:
            future.result(30).release()
    assert max(native.calls) <= 2


def test_coalesce_false_disables_batching(served, monkeypatch):
    service, native = batch_service(served, monkeypatch, max_batch=1)
    with service:
        service.pause()
        futures = [service.submit(served.values, served.input_for(seed))
                   for seed in range(4)]
        service.resume()
        for future in futures:
            future.result(30).release()
        stats = service.stats()
    assert max(native.calls) == 1
    assert stats.batches == 0 and stats.batched_frames == 0
    assert stats.mean_batch_size == 0.0


class LateAfterBatch:
    """Deadline double: alive at the pre-call check, expired afterwards."""

    def __init__(self):
        self._checks = 0

    def check(self, where=""):
        pass

    def expired(self):
        self._checks += 1
        return self._checks > 1

    def remaining(self):
        return 1.0 if self._checks <= 1 else -0.001


def test_late_batch_member_dropped_individually(served, monkeypatch):
    """One slow batch must not let a late member slide: its future fails
    with DeadlineExceeded, its buffers go back to the pool, and every
    punctual member still completes."""
    service, native = batch_service(served, monkeypatch)
    with service:
        service.pause()
        punctual = [service.submit(served.values, served.input_for(seed))
                    for seed in range(2)]
        late = service.submit(served.values, served.input_for(5),
                              deadline=LateAfterBatch())
        service.resume()
        for future in punctual:
            future.result(30).release()
        with pytest.raises(DeadlineExceeded) as err:
            late.result(30)
        stats = service.stats()
    assert "after batched native call" in str(err.value)
    assert 3 in native.calls  # all three went through one batch
    assert stats.timeouts == 1 and stats.completed == 2
    assert stats.pool["outstanding"] == 0


def test_interpreter_service_never_batches(served):
    """Without a native artifact the coalescing window stays shut —
    interpreter batching would serialize frames workers could overlap."""
    with PipelineService(served.compiled, backend="interpreter",
                         workers=1) as service:
        service.pause()
        futures = [service.submit(served.values, served.input_for(seed))
                   for seed in range(3)]
        service.resume()
        for future in futures:
            future.result(30).release()
        stats = service.stats()
    assert stats.batches == 0 and stats.batched_frames == 0
    assert stats.interp_frames == 3


# ---------------------------------------------------------------------------
# Pause-gate deadline regression
# ---------------------------------------------------------------------------

def test_paused_gate_fails_dequeued_frame_within_deadline(served):
    """Regression: a worker that dequeued a request and then found the
    service paused used to block on the bare gate while the request's
    deadline silently burned — the caller only learned on resume.  The
    gated wait is now bounded by the deadline and the future fails
    promptly, while the service is still paused."""
    with PipelineService(served.compiled, backend="interpreter",
                         workers=1) as service:
        # make sure the worker is parked inside queue.get (past the
        # top-of-loop gate check) before pausing
        service.run(served.values, served.input_for(0)).release()
        time.sleep(0.1)
        service.pause()
        future = service.submit(served.values, served.input_for(1),
                                deadline_s=0.25)
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded) as err:
            future.result(5)
        elapsed = time.monotonic() - start
        assert service.paused  # failed while paused, not on resume
        stats = service.stats()
        service.resume()
    assert "paused at gate" in str(err.value)
    assert elapsed < 2.0
    assert stats.timeouts == 1 and stats.completed == 1


def test_pause_resume_without_deadline_still_works(served):
    """The gate fix must not change the deadline-free contract: paused
    frames simply wait for resume."""
    with PipelineService(served.compiled, backend="interpreter",
                         workers=1) as service:
        service.run(served.values, served.input_for(0)).release()
        time.sleep(0.05)
        service.pause()
        future = service.submit(served.values, served.input_for(1))
        time.sleep(0.2)
        assert not future.done()
        service.resume()
        future.result(30).release()


# ---------------------------------------------------------------------------
# submitted counts accepted enqueues only
# ---------------------------------------------------------------------------

def test_rejected_submissions_do_not_inflate_submitted(served):
    """Regression: ``submitted`` was incremented before the enqueue
    attempt, so every rejection bumped both ``submitted`` and
    ``rejected`` and completed/submitted undercounted accepted
    throughput.  Now submitted == accepted, and the rejection rate is
    rejected over everything offered."""
    max_queue, workers = 2, 1
    with PipelineService(served.compiled, backend="interpreter",
                         workers=workers, max_queue=max_queue) as service:
        service.pause()
        accepted, rejected = [], 0
        for seed in range(max_queue + workers + 3):
            try:
                accepted.append(
                    service.submit(served.values, served.input_for(seed)))
            except Exception:
                rejected += 1
        assert rejected >= 1
        service.resume()
        for future in accepted:
            future.result(30).release()
        stats = service.stats()
    assert stats.submitted == len(accepted)
    assert stats.rejected == rejected
    assert stats.completed == stats.submitted
    assert stats.rejection_rate == pytest.approx(
        rejected / (len(accepted) + rejected))
