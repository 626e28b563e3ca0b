"""Fault injection: broken builds, broken loads, broken native calls,
mid-execution deadlines.  Each fault must degrade the service — never
wedge it — with the degradation visible in ``service.stats()``.

The injection point is ``repro.codegen.build.build_native``: the
background :class:`~repro.codegen.build.AsyncBuild` resolves it as a
module global precisely so these tests can monkeypatch it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.codegen import build as build_mod
from repro.codegen.build import BuildError
from repro.runtime.buffers import BufferPool
from repro.runtime.executor import execute_plan
from repro.serve import DeadlineExceeded, PipelineService
from repro.serve.fallback import MAX_NATIVE_ERRORS


def make_service(served, **kw):
    kw.setdefault("workers", 1)
    return PipelineService(served.compiled, backend="auto", **kw)


def test_build_failure_falls_back_to_interpreter(served, monkeypatch):
    def gcc_explodes(plan, name="pipeline", **kwargs):
        raise BuildError("injected: cc1 segfault")

    monkeypatch.setattr(build_mod, "build_native", gcc_explodes)
    with make_service(served) as service:
        assert service.wait_ready(30) == "interpreter"
        # frames are still served, by the interpreter
        inputs = served.input_for(0)
        with service.run(served.values, inputs) as frame:
            assert frame.backend == "interpreter"
            assert np.array_equal(frame.outputs[served.out],
                                  served.direct(inputs))
        stats = service.stats()
    assert stats.backend == "interpreter"
    assert stats.fallbacks == {"build_failed": 1}
    assert stats.completed == 1 and stats.interp_frames == 1


def test_load_failure_falls_back_to_interpreter(served, monkeypatch):
    def dlopen_explodes(plan, name="pipeline", **kwargs):
        raise OSError("injected: cannot load shared object")

    monkeypatch.setattr(build_mod, "build_native", dlopen_explodes)
    with make_service(served) as service:
        assert service.wait_ready(30) == "interpreter"
        service.run(served.values, served.input_for(1)).release()
        stats = service.stats()
    assert stats.fallbacks == {"load_failed": 1}
    assert stats.completed == 1


class FlakyNative:
    """Stand-in native pipeline that raises on every call."""

    def __init__(self):
        self.calls = 0

    def __call__(self, params, inputs, *, n_threads=1, tracer=None,
                 pool=None):
        self.calls += 1
        raise RuntimeError(f"injected native crash #{self.calls}")


def test_native_errors_reserve_frame_then_demote(served, monkeypatch):
    """Each native error re-serves the frame via the interpreter (caller
    still gets a correct result); after MAX_NATIVE_ERRORS consecutive
    errors the backend is demoted for good."""
    flaky = FlakyNative()
    monkeypatch.setattr(build_mod, "build_native",
                        lambda plan, name="pipeline", **kw: flaky)
    with make_service(served) as service:
        assert service.wait_ready(30) == "native"
        for seed in range(MAX_NATIVE_ERRORS + 1):
            inputs = served.input_for(seed)
            with service.run(served.values, inputs) as frame:
                assert frame.backend == "interpreter"
                assert np.array_equal(frame.outputs[served.out],
                                      served.direct(inputs))
        stats = service.stats()
    # the first MAX_NATIVE_ERRORS frames hit the flaky native and fell
    # back; the last went straight to the interpreter because the
    # backend was demoted
    assert flaky.calls == MAX_NATIVE_ERRORS
    assert stats.backend == "interpreter"
    assert stats.fallbacks == {"native_error": MAX_NATIVE_ERRORS,
                               "demoted": 1}
    assert stats.completed == stats.interp_frames == MAX_NATIVE_ERRORS + 1
    assert stats.failures == 0


class LateNative:
    """Native stand-in whose deadline is already blown when it returns."""

    def __init__(self, out_name, shape):
        self.out_name = out_name
        self.shape = shape

    def __call__(self, params, inputs, *, n_threads=1, tracer=None,
                 pool=None):
        out = (pool.acquire(self.shape, np.float32) if pool is not None
               else np.zeros(self.shape, dtype=np.float32))
        return {self.out_name: out}


class ExpiredAfterCall:
    """Deadline double: passes every check, reads as expired afterwards."""

    def check(self, where=""):
        pass

    def expired(self):
        return True

    def remaining(self):
        return -0.001


def test_late_native_frame_is_dropped_and_buffers_recycled(served,
                                                           monkeypatch):
    shape = (served.rows + 2, served.cols + 2)
    monkeypatch.setattr(
        build_mod, "build_native",
        lambda plan, name="pipeline", **kw: LateNative(served.out, shape))
    with make_service(served) as service:
        assert service.wait_ready(30) == "native"
        future = service.submit(served.values, served.input_for(0),
                                deadline=ExpiredAfterCall())
        with pytest.raises(DeadlineExceeded) as err:
            future.result(30)
        assert "after native call" in str(err.value)
        stats = service.stats()
    assert stats.timeouts == 1
    # the late frame's output buffer went straight back to the pool
    assert stats.pool["outstanding"] == 0


class TripAt:
    """Deadline double that fires at the first checkpoint whose name
    contains ``needle`` — deterministic mid-execution timeout."""

    def __init__(self, needle):
        self.needle = needle
        self.seen = []

    def check(self, where=""):
        self.seen.append(where)
        if self.needle in where:
            raise DeadlineExceeded(where, 0.001)

    def expired(self):
        return False

    def remaining(self):
        return 1.0


def test_deadline_enforced_at_group_boundaries(served):
    """The interpreter abandons a frame at the cooperative checkpoint
    inside execution — not merely on queue wait — and the timeout is
    attributed to the group that blew the budget."""
    trip = TripAt("group")
    with PipelineService(served.compiled, backend="interpreter",
                         workers=1) as service:
        future = service.submit(served.values, served.input_for(0),
                                deadline=trip)
        with pytest.raises(DeadlineExceeded) as err:
            future.result(30)
        stats = service.stats()
    assert "group" in err.value.where
    assert "queue wait" in trip.seen  # the earlier checkpoint did run
    assert stats.timeouts == 1 and stats.failures == 0
    # all pooled buffers acquired by the doomed frame were handed back
    assert stats.pool["outstanding"] == 0


class TripOneTileDawdleRest:
    """Deadline double for the threaded tile path: the first tile to hit
    its checkpoint trips; every later tile dawdles before running, so it
    is still writing when the exception reaches ``execute_plan`` unless
    the executor waits out its stragglers."""

    def __init__(self, dawdle_s: float):
        self.dawdle_s = dawdle_s
        self._lock = threading.Lock()
        self._tripped = False

    def check(self, where=""):
        if not where.startswith("tile"):
            return
        with self._lock:
            first = not self._tripped
            self._tripped = True
        if first:
            raise DeadlineExceeded(where, 0.001)
        time.sleep(self.dawdle_s)

    def expired(self):
        return False

    def remaining(self):
        return 1.0


def test_threaded_tile_abort_waits_for_straggler_tiles(served):
    """When a tiled group aborts mid-flight with n_threads > 1, sibling
    tiles must finish (or never start) before execute_plan releases the
    frame's pooled buffers — a straggler writing after the release would
    silently corrupt whichever frame leases those arrays next."""
    pool = BufferPool()
    with pytest.raises(DeadlineExceeded):
        execute_plan(served.compiled.plan, served.values,
                     served.input_for(0), n_threads=4,
                     deadline=TripOneTileDawdleRest(0.1), out_pool=pool)
    # the doomed frame handed every acquired array back ...
    assert pool.stats()["outstanding"] == 0
    # ... and no straggler tile is still writing into them: stamp the
    # idle arrays as the next frame would, then verify the stamps
    # outlive any tile that was dawdling at abort time
    idle = [a for bucket in pool._free.values() for a in bucket]
    assert idle
    for array in idle:
        array.fill(-7.0)
    time.sleep(0.25)
    for array in idle:
        assert np.all(array == -7.0)


def test_service_survives_faults_and_closes_cleanly(served, monkeypatch):
    def gcc_explodes(plan, name="pipeline", **kwargs):
        raise BuildError("injected")

    monkeypatch.setattr(build_mod, "build_native", gcc_explodes)
    service = make_service(served)
    service.wait_ready(30)
    for seed in range(3):
        service.run(served.values, served.input_for(seed)).release()
    service.close()
    assert service.closed
    for worker in service._workers:
        assert not worker.is_alive()
