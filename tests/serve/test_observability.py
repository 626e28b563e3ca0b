"""Request-lifecycle observability through the serving stack.

What this file pins down:

* every served frame carries a :class:`Timeline` whose stage durations
  (queue_wait + batch_wait + execute) sum to total *exactly* and track
  the client-observed latency;
* coalesced batch members get ``coalesced(batch_id, size)`` and
  ``dispatched(batch_size=...)`` marks;
* deadline drops are classified by reason (queue-wait expiry, paused at
  gate, late native, late batch member) in ``stats()``, the event log,
  and the Prometheus exposition;
* fallback state-machine transitions (build_failed, native_error,
  demoted) land in the event log — asserted under the same
  ``build_native`` monkeypatch fault injection the fault tests use;
* ``serve_metrics`` serves valid exposition text over HTTP (scraped
  with stdlib urllib);
* ``ServiceStats`` round-trips through ``to_dict``/``from_dict`` and
  renders the per-reason/per-stage breakdowns;
* ``sample_rate=1.0`` promotes requests to Chrome-trace async spans.
"""

from __future__ import annotations

import json
import time
import urllib.request

import numpy as np
import pytest

from repro.codegen import build as build_mod
from repro.codegen.build import BuildError
from repro.observe import Tracer, validate_chrome_trace
from repro.observe.export import validate_exposition_text
from repro.serve import (
    Deadline, DeadlineExceeded, PipelineService, ServiceStats,
    ShardedService,
)
from repro.serve.fallback import MAX_NATIVE_ERRORS
from repro.serve.service import STAGES, _timeout_reason

from tests.serve.test_batching import batch_service
from tests.serve.test_faults import ExpiredAfterCall, FlakyNative, make_service


def interp_service(served, **kw):
    """A one-worker interpreter-only service (no build, deterministic)."""
    kw.setdefault("workers", 1)
    return PipelineService(served.compiled, backend="interpreter", **kw)


def interp_router(served, **kw):
    """The process-sharded twin of :func:`interp_service`: one worker
    process, interpreter only."""
    return ShardedService(served.compiled, workers=1,
                          backend="interpreter", **kw)


#: drop-reason contracts both tiers must keep identically
both_tiers = pytest.mark.parametrize(
    "make", [interp_service, interp_router], ids=["thread", "sharded"])


# ---------------------------------------------------------------------------
# timelines on served frames
# ---------------------------------------------------------------------------

def test_frame_timeline_stages_sum_to_total_exactly(served):
    with interp_service(served) as service:
        t0 = time.monotonic()
        frame = service.run(served.values, served.input_for(0))
        client_latency = time.monotonic() - t0
        frame.release()
    tl = frame.timeline()
    assert tl is not None
    kinds = [e.kind for e in tl.events()]
    assert kinds[:2] == ["submitted", "dequeued"]
    assert kinds[-1] == "completed"
    d = tl.durations()
    assert set(d) == set(STAGES)
    assert d["queue_wait"] + d["batch_wait"] + d["execute"] == d["total"]
    # the server-side total is bounded by what the client saw, and the
    # client only adds submit + future-wakeup overhead on top
    assert 0 <= d["total"] <= client_latency
    assert client_latency - d["total"] < 0.1
    assert tl.last("completed").fields["backend"] == "interpreter"


def test_timelines_feed_stage_histograms_and_stats(served):
    with interp_service(served) as service:
        for seed in range(3):
            service.run(served.values, served.input_for(seed)).release()
        stats = service.stats()
        hists = service.metrics.histograms()
    for stage in STAGES:
        assert hists[f"{stage}_seconds"].count == 3
        assert stats.stages[stage]["count"] == 3
        assert stats.stages[stage]["p50_ms"] >= 0.0
    assert "stages (p50/p99 ms):" in str(stats)


def test_event_log_records_full_lifecycle(served):
    with interp_service(served) as service:
        future = service.submit(served.values, served.input_for(0))
        future.result(30).release()
        rid = future.result(30).timeline().request_id
        events = service.events(request_id=rid)
    kinds = [e.kind for e in events]
    assert kinds == ["submitted", "dequeued", "dispatched", "completed"]
    assert service.event_log.appended >= 4


def test_events_path_streams_jsonl(served, tmp_path):
    path = tmp_path / "events.jsonl"
    with interp_service(served, events_path=path) as service:
        service.run(served.values, served.input_for(0)).release()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = {rec["kind"] for rec in records}
    assert {"submitted", "dequeued", "dispatched", "completed"} <= kinds
    assert all("t_rel" in rec and "wall" in rec for rec in records)


# ---------------------------------------------------------------------------
# coalesced batches
# ---------------------------------------------------------------------------

def test_coalesced_members_carry_batch_marks(served, monkeypatch):
    service, native = batch_service(served, monkeypatch)
    with service:
        service.pause()
        futures = [service.submit(served.values, served.input_for(seed))
                   for seed in range(4)]
        service.resume()
        frames = [future.result(30) for future in futures]
        for frame in frames:
            frame.release()
    assert max(native.calls) >= 2
    batched = [f for f in frames
               if f.timeline().last("coalesced") is not None]
    assert len(batched) >= 2
    sizes = set()
    batch_ids = set()
    for frame in batched:
        tl = frame.timeline()
        coalesced = tl.last("coalesced")
        sizes.add(coalesced.fields["size"])
        batch_ids.add(coalesced.fields["batch_id"])
        dispatched = tl.last("dispatched")
        assert dispatched.fields["backend"] == "native"
        assert dispatched.fields["batch_size"] == coalesced.fields["size"]
        d = tl.durations()
        assert d["queue_wait"] + d["batch_wait"] + d["execute"] \
            == d["total"]
    assert all(size >= 2 for size in sizes)
    # members of one batch share the leader's request id
    assert len(batch_ids) <= len(batched) - 1 or len(batched) == 2


# ---------------------------------------------------------------------------
# drop reasons
# ---------------------------------------------------------------------------

def test_timeout_reason_classifier():
    assert _timeout_reason("queue wait") == "queue_wait"
    assert _timeout_reason("before native call") == "queue_wait"
    assert _timeout_reason("paused at gate") == "paused_at_gate"
    assert _timeout_reason("after native call") == "late_native"
    assert _timeout_reason("after batched native call") \
        == "late_batch_member"
    assert _timeout_reason("group blur tile (0, 1)") == "in_execution"


@both_tiers
def test_queue_wait_expiry_reason(served, make):
    with make(served) as service:
        service.pause()
        future = service.submit(served.values, served.input_for(0),
                                deadline_s=30.0)
        expired = service.submit(served.values, served.input_for(1),
                                 deadline=Deadline(0.0))
        service.resume()
        future.result(30).release()
        with pytest.raises(DeadlineExceeded) as err:
            expired.result(30)
        stats = service.stats()
    assert stats.timeouts == 1
    assert stats.timeouts_by_reason == {"queue_wait": 1}
    # the timeline rides on the exception for post-mortem inspection,
    # and the overrun says by how much the budget was missed
    tl = err.value.timeline
    assert tl.last("dropped").fields["reason"] == "queue_wait"
    assert err.value.overrun_s > 0.0
    assert "deadline-exceeded (queue_wait=1)" in str(stats)


@both_tiers
def test_paused_at_gate_reason(served, make):
    with make(served) as service:
        service.pause()
        future = service.submit(served.values, served.input_for(0),
                                deadline_s=0.05)
        with pytest.raises(DeadlineExceeded) as err:
            future.result(30)
        stats = service.stats()
        dropped = service.events(kind="dropped")
        service.resume()
    assert "paused at gate" in str(err.value)
    assert err.value.timeline.last("dropped").fields["reason"] \
        == "paused_at_gate"
    assert stats.timeouts_by_reason == {"paused_at_gate": 1}
    assert dropped[-1].fields["reason"] == "paused_at_gate"
    assert service.metrics.counter("timeouts_paused_at_gate") == 1


class _FlipAfter:
    """Deadline double: healthy for the first ``n`` expiry checks, then
    expired — lets a batch member pass the pre-call check and die at the
    post-call one."""

    def __init__(self, n: int = 1):
        self._healthy_checks = n

    def check(self, where=""):
        pass

    def expired(self):
        if self._healthy_checks > 0:
            self._healthy_checks -= 1
            return False
        return True

    def remaining(self):
        return -0.001


def test_late_batch_member_reason(served, monkeypatch):
    service, native = batch_service(served, monkeypatch)
    with service:
        service.pause()
        on_time = service.submit(served.values, served.input_for(0))
        late = service.submit(served.values, served.input_for(1),
                              deadline=_FlipAfter(1))
        service.resume()
        on_time.result(30).release()
        with pytest.raises(DeadlineExceeded) as err:
            late.result(30)
        stats = service.stats()
    assert max(native.calls) == 2  # the two really were coalesced
    assert "after batched native call" in str(err.value)
    assert stats.timeouts_by_reason == {"late_batch_member": 1}
    assert err.value.timeline.last("dropped").fields["reason"] \
        == "late_batch_member"


def test_late_native_reason(served, monkeypatch):
    from tests.serve.test_faults import LateNative

    shape = (served.rows + 2, served.cols + 2)
    monkeypatch.setattr(
        build_mod, "build_native",
        lambda plan, name="pipeline", **kw: LateNative(served.out, shape))
    with make_service(served, max_batch=1) as service:
        assert service.wait_ready(30) == "native"
        future = service.submit(served.values, served.input_for(0),
                                deadline=ExpiredAfterCall())
        with pytest.raises(DeadlineExceeded):
            future.result(30)
        stats = service.stats()
    assert stats.timeouts_by_reason == {"late_native": 1}


# ---------------------------------------------------------------------------
# fallback transitions in the event log
# ---------------------------------------------------------------------------

def test_build_failure_transition_recorded(served, monkeypatch):
    def gcc_explodes(plan, name="pipeline", **kwargs):
        raise BuildError("injected: cc1 segfault")

    monkeypatch.setattr(build_mod, "build_native", gcc_explodes)
    with make_service(served) as service:
        assert service.wait_ready(30) == "interpreter"
        service.run(served.values, served.input_for(0)).release()
        transitions = [e.fields["transition"]
                       for e in service.events(kind="backend")]
        counters = service.metrics.counters()
    assert transitions == ["build_failed"]
    assert "BuildError" in \
        service.events(kind="backend")[0].fields["error"]
    assert counters["backend_build_failed"] == 1


def test_native_error_and_demotion_transitions(served, monkeypatch):
    flaky = FlakyNative()
    monkeypatch.setattr(build_mod, "build_native",
                        lambda plan, name="pipeline", **kw: flaky)
    with make_service(served) as service:
        assert service.wait_ready(30) == "native"
        for seed in range(MAX_NATIVE_ERRORS + 1):
            service.run(served.values, served.input_for(seed)).release()
        transitions = [e.fields["transition"]
                       for e in service.events(kind="backend")]
    # build_ready, then the native errors, the last demoting for good
    assert transitions == (["build_ready"]
                           + ["native_error"] * MAX_NATIVE_ERRORS
                           + ["demoted"])


def test_build_ready_transition_recorded(served, monkeypatch):
    service, _ = batch_service(served, monkeypatch)
    with service:
        transitions = [e.fields["transition"]
                       for e in service.events(kind="backend")]
    assert transitions == ["build_ready"]


def test_fallback_retry_dispatch_stays_inside_execute(served, monkeypatch):
    flaky = FlakyNative()
    monkeypatch.setattr(build_mod, "build_native",
                        lambda plan, name="pipeline", **kw: flaky)
    with make_service(served) as service:
        assert service.wait_ready(30) == "native"
        frame = service.run(served.values, served.input_for(0))
        frame.release()
    tl = frame.timeline()
    dispatches = [e for e in tl.events() if e.kind == "dispatched"]
    assert [e.fields["backend"] for e in dispatches] \
        == ["native", "interpreter"]
    assert dispatches[1].fields["retry"] is True
    d = tl.durations()
    assert d["queue_wait"] + d["batch_wait"] + d["execute"] == d["total"]


# ---------------------------------------------------------------------------
# metrics exposition endpoint
# ---------------------------------------------------------------------------

def test_serve_metrics_scrape_is_valid_exposition(served):
    with interp_service(served) as service:
        for seed in range(2):
            service.run(served.values, served.input_for(seed)).release()
        server = service.serve_metrics()
        assert service.serve_metrics() is server  # memoized
        with urllib.request.urlopen(server.url, timeout=10) as resp:
            assert resp.status == 200
            assert "version=0.0.4" in resp.headers["Content-Type"]
            text = resp.read().decode("utf-8")
    assert validate_exposition_text(text) == []
    assert "repro_serve_completed_total 2" in text
    for stage in STAGES:
        assert f"repro_serve_{stage}_seconds_count 2" in text
        assert f'repro_serve_{stage}_seconds_bucket{{le="+Inf"}} 2' in text
    assert "repro_serve_backend_is_interpreter 1" in text
    assert "repro_serve_queue_depth 0" in text


def test_serve_metrics_exposes_timeout_reasons(served):
    with interp_service(served) as service:
        future = service.submit(served.values, served.input_for(0),
                                deadline=Deadline(0.0))
        with pytest.raises(DeadlineExceeded):
            future.result(30)
        server = service.serve_metrics()
        with urllib.request.urlopen(server.url, timeout=10) as resp:
            text = resp.read().decode("utf-8")
    assert validate_exposition_text(text) == []
    assert "repro_serve_timeouts_total 1" in text
    assert "repro_serve_timeouts_queue_wait_total 1" in text


# ---------------------------------------------------------------------------
# ServiceStats round-trip and rendering
# ---------------------------------------------------------------------------

def test_service_stats_round_trips(served):
    with interp_service(served) as service:
        service.run(served.values, served.input_for(0)).release()
        stats = service.stats()
    data = json.loads(json.dumps(stats.to_dict()))
    restored = ServiceStats.from_dict(data)
    assert restored == stats
    assert restored.to_dict() == stats.to_dict()
    assert restored.mean_batch_size == stats.mean_batch_size


# ---------------------------------------------------------------------------
# sampling -> Chrome-trace async spans
# ---------------------------------------------------------------------------

def test_sample_rate_promotes_requests_to_async_spans(served):
    tracer = Tracer(enabled=True)
    with interp_service(served, sample_rate=1.0,
                      tracer=tracer) as service:
        frame = service.run(served.values, served.input_for(0))
        frame.release()
    assert frame.timeline().sampled
    events = tracer.async_events()
    phases = [e["ph"] for e in events]
    assert phases == ["b", "n", "e"]
    assert all(e["name"].endswith(".request") for e in events)
    assert events[-1]["args"]["outcome"] == "completed"
    doc = tracer.to_chrome()
    assert validate_chrome_trace(doc) == []
    # worker threads got thread_name metadata from the worker loop
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert any(e["args"]["name"].startswith("repro-serve-")
               for e in meta)


def test_sample_rate_zero_records_no_async_spans(served):
    tracer = Tracer(enabled=True)
    with interp_service(served, sample_rate=0.0,
                      tracer=tracer) as service:
        frame = service.run(served.values, served.input_for(0))
        frame.release()
    assert not frame.timeline().sampled
    assert tracer.async_events() == []


def test_sample_rate_is_deterministic_every_nth(served):
    tracer = Tracer(enabled=True)
    with interp_service(served, sample_rate=0.5,
                      tracer=tracer) as service:
        frames = [service.run(served.values, served.input_for(seed))
                  for seed in range(4)]
        for frame in frames:
            frame.release()
    sampled = [f.timeline().sampled for f in frames]
    assert sampled == [True, False, True, False]


def test_sample_rate_validation(served):
    with pytest.raises(ValueError, match="sample_rate"):
        PipelineService(served.compiled, backend="interpreter",
                        sample_rate=1.5)
