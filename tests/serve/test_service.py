"""PipelineService basics: submission, results, stats, pooling, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.build import compiler_available
from repro.serve import (
    DeadlineExceeded, Frame, PipelineService, ServiceClosed,
)


def interp_service(served, **kw):
    kw.setdefault("workers", 1)
    return PipelineService(served.compiled, backend="interpreter", **kw)


def test_submit_matches_direct_execution(served):
    inputs = served.input_for(3)
    want = served.direct(inputs)
    with interp_service(served) as service:
        with service.submit(served.values, inputs).result(30) as frame:
            assert frame.backend == "interpreter"
            assert frame.latency_s >= 0.0
            assert np.array_equal(frame.outputs[served.out], want)


def test_run_convenience_and_stats_counters(served):
    with interp_service(served) as service:
        for seed in range(3):
            with service.run(served.values, served.input_for(seed)):
                pass
        stats = service.stats()
    assert stats.submitted == 3
    assert stats.completed == 3
    assert stats.interp_frames == 3
    assert stats.native_frames == 0
    assert stats.rejected == stats.timeouts == stats.failures == 0
    assert stats.backend == "interpreter"
    assert stats.latency["count"] == 3
    assert stats.latency["p99_ms"] >= stats.latency["p50_ms"] > 0.0
    assert stats.native_rate == 0.0 and stats.rejection_rate == 0.0
    # snapshot round-trips and renders without blowing up
    assert stats.to_dict()["completed"] == 3
    assert "interpreter" in stats.render()


def test_frame_release_is_idempotent(served):
    with interp_service(served) as service:
        frame = service.run(served.values, served.input_for(1))
        leased_before = service.stats().pool["outstanding"]
        frame.release()
        frame.release()  # second release must not double-free
        frame.release()
        leased_after = service.stats().pool["outstanding"]
    assert leased_after < leased_before
    # the pool got each output back exactly once
    assert leased_after == leased_before - len({
        id(a) for a in frame.outputs.values()})


def test_pool_reaches_full_hit_rate_in_steady_state(served):
    with interp_service(served) as service:
        # warmup: first frame allocates, release hands everything back
        service.run(served.values, served.input_for(0)).release()
        base = service.stats().pool
        for seed in range(1, 6):
            frame = service.run(served.values, served.input_for(seed))
            got = frame.outputs[served.out].copy()
            frame.release()
            assert np.array_equal(got, served.direct(served.input_for(seed)))
        steady = service.stats().pool
    # steady-state serving allocates nothing: hits grew, misses did not
    assert steady["misses"] == base["misses"]
    assert steady["hits"] > base["hits"]
    assert steady["outstanding"] == 0


def test_expired_deadline_times_out_in_queue(served):
    with interp_service(served) as service:
        future = service.submit(served.values, served.input_for(0),
                                deadline_s=0.0)
        with pytest.raises(DeadlineExceeded) as err:
            future.result(30)
        assert "queue wait" in str(err.value)
        stats = service.stats()
    assert stats.timeouts == 1
    assert stats.completed == 0
    assert stats.timeout_rate == 1.0


def test_default_deadline_applies_to_submissions(served):
    with interp_service(served, default_deadline_s=0.0) as service:
        with pytest.raises(DeadlineExceeded):
            service.submit(served.values, served.input_for(0)).result(30)
        # per-call deadline overrides the default
        frame = service.run(served.values, served.input_for(0),
                            deadline_s=60.0)
        frame.release()
    assert frame.backend == "interpreter"


def test_close_rejects_new_submissions(served):
    service = interp_service(served)
    service.run(served.values, served.input_for(0)).release()
    service.close()
    assert service.closed
    with pytest.raises(ServiceClosed):
        service.submit(served.values, served.input_for(1))
    assert service.stats().rejected == 1
    service.close()  # idempotent


def test_pause_resume(served):
    with interp_service(served) as service:
        assert not service.paused
        service.pause()
        assert service.paused
        future = service.submit(served.values, served.input_for(0))
        assert not future.done()
        service.resume()
        future.result(30).release()
    assert not service.paused


def test_validation_errors():
    class Dummy:
        plan = None
        name = "d"

    with pytest.raises(ValueError, match="backend"):
        PipelineService(Dummy(), backend="gpu")
    with pytest.raises(ValueError, match="workers"):
        PipelineService(Dummy(), backend="interpreter", workers=0)


def test_compiled_pipeline_serve_entrypoint(served):
    with served.compiled.serve(backend="interpreter", workers=1) as service:
        assert service.name == served.compiled.name
        assert "PipelineService" in repr(service)
        service.run(served.values, served.input_for(4)).release()
    assert service.stats().completed == 1


@pytest.mark.skipif(not compiler_available(), reason="no C compiler found")
def test_auto_backend_switches_to_native(served):
    inputs = served.input_for(5)
    want = served.direct(inputs)
    with PipelineService(served.compiled, workers=1,
                         backend="auto") as service:
        assert service.wait_ready(180) == "native"
        frame = service.run(served.values, inputs)
        assert frame.backend == "native"
        assert np.allclose(frame.outputs[served.out], want,
                           rtol=1e-5, atol=1e-6)
        frame.release()
        stats = service.stats()
        assert stats.native_frames == 1
        assert stats.fallbacks == {}
        # release() drops idle pool buffers + arenas and stays servable
        service.release()
        service.run(served.values, inputs).release()
