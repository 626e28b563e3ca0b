"""Worker-death fault injection for the process-sharded router.

The contract under test (ISSUE acceptance): kill -9 a worker mid-burst
and (a) the router detects the death and respawns the shard, (b) every
in-flight frame resolves — requeued onto a live shard or failed with
:class:`WorkerCrashed` — never hangs, (c) post-recovery outputs are
bit-identical to direct execution, and (d) the dead worker's
shared-memory segments are reaped, with zero segments left after
``close()``.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.serve import ShardedService, WorkerCrashed
from repro.serve.shm import live_segments


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def resolve(future, timeout: float = 120.0):
    """Frame-or-WorkerCrashed; anything else (including a hang past the
    timeout) is a contract violation."""
    try:
        return future.result(timeout=timeout)
    except WorkerCrashed:
        return None


@pytest.fixture
def router(served):
    service = ShardedService(served.compiled, workers=2,
                             backend="interpreter", max_queue=64,
                             name="fault_t")
    token = service.token
    service.wait_ready(timeout=120)
    yield service
    service.close()
    assert live_segments(token) == [], "segments leaked past close()"


def _shard_with_pending(service):
    with service._lock:
        for shard in service._shards.values():
            if shard.alive and shard.pending:
                return shard
    return None


def test_kill9_paused_backlog_requeues(served, router):
    """Deterministic variant: freeze the workers so the backlog is
    parked on the shards, SIGKILL one, and demand every frame still
    resolves (requeued to the survivor — the retry budget covers one
    death)."""
    router.pause()
    inputs = served.input_for(1)
    ref = served.direct(inputs)
    futures = [router.submit(served.values, inputs) for _ in range(8)]
    victim = _shard_with_pending(router)
    assert victim is not None, "paused submits left no pending frames"
    victim_segments = set(victim.segments)
    os.kill(victim.handle.pid, signal.SIGKILL)

    assert wait_until(
        lambda: router.transport()["worker_deaths"] >= 1), \
        "router never noticed the SIGKILL"
    router.resume()

    frames = [resolve(f) for f in futures]
    completed = [f for f in frames if f is not None]
    assert len(completed) == len(futures), \
        "frames on the dead shard had retry budget — none may fail"
    for frame in completed:
        assert np.array_equal(frame.outputs[served.out], ref)
        frame.release()

    transport = router.transport()
    assert transport["worker_deaths"] == 1
    assert transport["respawns"] >= 1
    assert transport["requeued"] >= 1, "no frame took the requeue path"
    # the dead worker's announced slabs must have been reaped
    live = set(live_segments(router.token))
    assert not (victim_segments & live), \
        f"dead worker's segments leaked: {victim_segments & live}"
    assert wait_until(lambda: router.workers == 2), \
        "dead shard was never respawned"


def test_kill9_mid_burst_never_hangs(served, router):
    """Realistic variant: SIGKILL while frames are actively executing.
    Frames may resolve either way (a frame already inside the dying
    worker has no checkpoint), but every future must resolve and the
    fleet must recover to bit-identical service."""
    inputs = served.input_for(2)
    ref = served.direct(inputs)
    futures = [router.submit(served.values, inputs) for _ in range(12)]
    with router._lock:
        pids = [s.handle.pid for s in router._shards.values() if s.alive]
    os.kill(pids[0], signal.SIGKILL)

    frames = [resolve(f) for f in futures]
    for frame in frames:
        if frame is not None:
            assert np.array_equal(frame.outputs[served.out], ref)
            frame.release()
    assert wait_until(
        lambda: router.transport()["worker_deaths"] >= 1)
    assert wait_until(lambda: router.workers == 2), \
        "fleet did not recover to full strength"

    # post-recovery: fresh frames, bit-identical, on both shards
    fresh = [router.submit(served.values, served.input_for(seed))
             for seed in (10, 11, 12, 13)]
    for seed, future in zip((10, 11, 12, 13), fresh):
        with future.result(timeout=120) as frame:
            assert np.array_equal(
                frame.outputs[served.out],
                served.direct(served.input_for(seed)))


def _only_pid(service):
    with service._lock:
        return next(iter(service._shards.values())).handle.pid


def test_pause_survives_respawn(served):
    """A worker respawned under a paused router starts paused: the
    frames requeued onto it park until resume(), then complete
    bit-identically."""
    service = ShardedService(served.compiled, workers=1,
                             backend="interpreter", max_queue=32,
                             name="pause_t")
    token = service.token
    try:
        service.wait_ready(timeout=120)
        service.pause()
        inputs = served.input_for(5)
        futures = [service.submit(served.values, inputs)
                   for _ in range(4)]
        os.kill(_only_pid(service), signal.SIGKILL)
        assert wait_until(lambda: service.transport()["requeued"] == 4), \
            "the dead worker's frames were not requeued"
        # the respawned worker answers a stats request sent after the
        # requeued frames, so it has read all four off its pipe
        shards = service.shard_stats(timeout=60)
        assert shards[0].queue_depth == 4, shards
        time.sleep(0.5)
        assert not any(f.done() for f in futures), \
            "the respawned worker ran frames while the router was paused"
        assert service.paused and service.workers == 1
        service.resume()
        assert not service.paused
        ref = served.direct(inputs)
        for future in futures:
            with future.result(timeout=120) as frame:
                assert np.array_equal(frame.outputs[served.out], ref)
    finally:
        service.close()
    assert live_segments(token) == []


def test_retry_budget_exhaustion_fails_cleanly(served):
    """A frame is requeued once: a second death while it is parked on
    the respawned worker fails it with WorkerCrashed — quickly and
    loudly, never a hang — and the fleet still recovers."""
    service = ShardedService(served.compiled, workers=1,
                             backend="interpreter", max_queue=32,
                             name="budget_t")
    token = service.token
    try:
        service.wait_ready(timeout=120)
        service.pause()
        futures = [service.submit(served.values, served.input_for(3))
                   for _ in range(4)]
        os.kill(_only_pid(service), signal.SIGKILL)
        assert wait_until(lambda: service.transport()["requeued"] == 4), \
            "the first death must requeue every parked frame"
        os.kill(_only_pid(service), signal.SIGKILL)
        failures = 0
        for future in futures:
            try:
                future.result(timeout=120).release()
            except WorkerCrashed:
                failures += 1
        assert failures == len(futures), \
            "a second death must fail every requeued frame"
        # the service is still usable on the respawned worker
        assert wait_until(lambda: service.workers == 1)
        service.resume()
        with service.run(served.values, served.input_for(4),
                         timeout=120) as frame:
            assert np.array_equal(frame.outputs[served.out],
                                  served.direct(served.input_for(4)))
    finally:
        service.close()
    assert live_segments(token) == []
