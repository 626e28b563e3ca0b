"""ShardedService integration: API parity, zero-copy, merged stats.

One 2-worker router (interpreter backend — deterministic and fast on any
box) is shared module-wide; every test feeds it frames and checks one
slice of the contract.  Worker-death fault injection lives in
``test_router_faults.py``; the in-process transport layer in
``test_shm.py``.
"""

from __future__ import annotations

import os
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.codegen.build import compiler_available
from repro.observe.export import validate_exposition_text
from repro.serve import Overloaded, PipelineService, ShardedService
from repro.serve.shm import SlabAllocator, live_segments

from .conftest import make_served

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "0"))
FUZZ_N = max(2, int(os.environ.get("REPRO_FUZZ_N", "12")) // 3)


@pytest.fixture(scope="module")
def router(served):
    service = ShardedService(served.compiled, workers=2,
                             backend="interpreter", max_queue=32,
                             name="router_t")
    token = service.token
    service.wait_ready(timeout=120)
    yield service
    service.close()
    assert live_segments(token) == [], "segments leaked past close()"


def test_outputs_bit_identical_to_direct(served, router):
    futures, refs = [], []
    for seed in range(6):
        inputs = served.input_for(seed)
        refs.append(served.direct(inputs))
        futures.append(router.submit(served.values, inputs))
    for future, ref in zip(futures, refs):
        with future.result(timeout=120) as frame:
            assert np.array_equal(frame.outputs[served.out], ref)
            assert frame.backend == "interpreter"


def test_frame_timeline_has_worker_marks(served, router):
    with router.run(served.values, served.input_for(99),
                    timeout=120) as frame:
        timeline = frame.timeline()
        kinds = [event.kind for event in timeline.events()]
        assert "submitted" in kinds and "shipped" in kinds
        assert "worker_completed" in kinds, kinds
        assert kinds[-1] == "completed"


def test_outputs_are_shared_memory_views(served, router):
    """The zero-copy regression: pixel data reaches the client as a view
    over the worker's shared pages — never re-materialized by a pickle —
    and the worker never had to stage outputs either."""
    future = router.submit(served.values, served.input_for(7))
    frame = future.result(timeout=120)
    out = frame.outputs[served.out]
    assert router.segment_map.contains(out), \
        "output array is not backed by an attached shm segment"
    frame.release()
    assert router.transport()["copied_out"] == 0, \
        "worker staged output copies on the export path"


def test_merged_stats_match_thread_service_shape(served, router):
    """stats() must speak the exact ServiceStats dialect of the thread
    service — same fields, same histogram buckets — so dashboards and
    ``render()`` work unchanged."""
    with PipelineService(served.compiled, workers=1,
                         backend="interpreter") as threaded:
        threaded.run(served.values, served.input_for(0)).release()
        thread_dict = threaded.stats().to_dict()
    merged = router.stats()
    merged_dict = merged.to_dict()
    assert set(merged_dict) == set(thread_dict)
    assert set(merged_dict["stages"]) == set(thread_dict["stages"])
    for stage, summary in merged_dict["stages"].items():
        assert set(summary) == set(thread_dict["stages"][stage]), stage
    assert merged.completed >= 6
    assert merged.submitted >= merged.completed
    assert "p50" in merged.render()


def test_shard_stats_sum_to_merged(served, router):
    per_shard = router.shard_stats()
    assert len(per_shard) == 2
    merged = router.stats()
    worker_completed = sum(s.completed for s in per_shard.values())
    # every router-completed frame was completed by exactly one worker
    assert worker_completed >= merged.completed > 0


def test_labeled_prometheus_exposition(served, router):
    server = router.serve_metrics(port=0)
    with urllib.request.urlopen(server.url) as response:
        text = response.read().decode()
    validate_exposition_text(text)
    assert "repro_serve_router_submitted" in text
    assert 'shard="0"' in text and 'shard="1"' in text
    # per-shard histograms keep their le buckets under the shard label
    assert 'le="' in text


def test_uniform_workload_lands_on_both_shards(served):
    """Identical frames spread across the fleet: placement is least-
    outstanding-work, so a uniform workload keeps both shards busy
    instead of funnelling into one."""
    with ShardedService(served.compiled, workers=2,
                        backend="interpreter", max_queue=32,
                        name="spread_t") as service:
        service.wait_ready(timeout=120)
        service.pause()  # freeze workers so backlog is deterministic
        inputs = served.input_for(5)
        futures = [service.submit(served.values, inputs)
                   for _ in range(8)]
        service.resume()
        for future in futures:
            future.result(timeout=120).release()
        per_shard = service.shard_stats()
        busy = [index for index, stats in per_shard.items()
                if stats.submitted > 0]
        assert len(busy) == 2, \
            f"uniform workload stuck to one shard: {per_shard}"


def test_wait_ready_waits_for_the_interpreter_worker(served):
    """An interpreter shard needs no build, but it is not ready before
    its worker has started its command loop: right after
    ``wait_ready()`` a stats round-trip gets the worker's own answer at
    once, not the router's fallback (no payload has arrived yet)."""
    with ShardedService(served.compiled, workers=1,
                        backend="interpreter", name="ready_t") as service:
        assert service.wait_ready(timeout=120) == "interpreter"
        (shard,) = service._shards.values()
        os.kill(shard.handle.pid, 0)  # the worker process is running
        assert shard.last_stats is None
        stats = service.shard_stats(timeout=0.25)
        assert list(stats) == [0], "no live stats answer after wait_ready"
        assert shard.last_stats is not None


def test_admission_bound_holds_under_concurrent_submitters(served,
                                                           monkeypatch):
    """``max_queue`` is checked in the same lock hold that registers the
    frame, so barrier-released submitters can never overshoot it.  A
    slow input allocator widens the window between admission and
    registration on purpose: a router that checks first and registers
    after staging the pixels lets every submitter through the check."""
    with ShardedService(served.compiled, workers=2,
                        backend="interpreter", max_queue=4,
                        name="admit_t") as service:
        service.wait_ready(timeout=120)
        service.pause()  # nothing completes while the submitters race
        inputs = served.input_for(4)
        barrier = threading.Barrier(16)
        accepted, rejected = [], []

        def submitter():
            barrier.wait()
            try:
                accepted.append(service.submit(served.values, inputs))
            except Overloaded:
                rejected.append(True)

        alloc = SlabAllocator.alloc

        def slow_alloc(self, nbytes):
            time.sleep(0.05)
            return alloc(self, nbytes)

        with monkeypatch.context() as patch:
            patch.setattr(SlabAllocator, "alloc", slow_alloc)
            threads = [threading.Thread(target=submitter)
                       for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        service.resume()
        for future in accepted:
            future.result(timeout=120).release()
    assert len(accepted) == 4 and len(rejected) == 12, \
        f"{len(accepted)} frames admitted past max_queue=4"


def test_mixed_traffic_coalesces_only_matching_frames(served):
    """Interleaved runs of two keys (parameter set + input shape) parked
    in one paused worker: once resumed, coalesced batches form from the
    parked frames (native backend) and never mix keys, and every output
    equals a direct call."""
    native = compiler_available()
    small = {param: value - 12 for param, value in served.values.items()}
    keys = [served.values, small]
    pattern = [0, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 1]
    rng = np.random.default_rng(17)
    frames = []
    for key in pattern:
        rows, cols = (keys[key][param] + 2 for param in served.values)
        frames.append((key, {served.image: rng.random(
            (rows, cols), dtype=np.float32)}))
    direct = served.compiled.build() if native else served.compiled
    with ShardedService(served.compiled, workers=1,
                        backend="auto" if native else "interpreter",
                        max_queue=32, name="mixed_t") as service:
        assert service.wait_ready(timeout=240) \
            == ("native" if native else "interpreter")
        service.pause()
        futures = [service.submit(keys[key], inputs)
                   for key, inputs in frames]
        service.resume()
        batches: dict[int, set] = {}
        for (key, inputs), future in zip(frames, futures):
            with future.result(timeout=120) as frame:
                assert np.array_equal(
                    frame.outputs[served.out],
                    direct(keys[key], inputs)[served.out])
                mark = frame.timeline().last("worker_coalesced")
                if mark is not None:
                    batches.setdefault(mark.fields["batch_id"],
                                       set()).add(key)
        stats = service.stats()
    assert all(len(members) == 1 for members in batches.values()), \
        f"a coalesced batch mixed keys: {batches}"
    if native:
        assert stats.batched_frames > 0 and batches, \
            "parked compatible frames were never coalesced"


def test_held_outputs_survive_later_frames(served, router):
    """Output slots stay leased while the client holds the frame: K
    unreleased frames keep their pixels while 4K more are served (a slot
    recycled too early would be overwritten by a later frame)."""
    held = []
    for seed in range(4):
        frame = router.submit(served.values,
                              served.input_for(200 + seed)).result(120)
        held.append((frame, frame.outputs[served.out].copy()))
    futures = [router.submit(served.values, served.input_for(300 + i))
               for i in range(16)]
    for future in futures:
        future.result(timeout=120).release()
    for frame, snapshot in held:
        assert np.array_equal(frame.outputs[served.out], snapshot)
        frame.release()


def test_serve_processes_config(served):
    service = served.compiled.serve(processes=1, backend="interpreter")
    try:
        assert isinstance(service, ShardedService)
        with service.run(served.values, served.input_for(1),
                         timeout=120) as frame:
            assert np.array_equal(frame.outputs[served.out],
                                  served.direct(served.input_for(1)))
    finally:
        service.close()
    threaded = served.compiled.serve(backend="interpreter")
    try:
        assert isinstance(threaded, PipelineService)
    finally:
        threaded.close()


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
def test_warm_store_cold_start_skips_compiler(served, tmp_path):
    """A schedule store published by one build cold-starts every shard of
    a read-only fleet: each dlopens the stored artifact with zero
    compiler seconds and serves what a direct native call computes."""
    cache_dir = str(tmp_path)
    native = served.compiled.build(store="rw", cache_dir=cache_dir)
    inputs = served.input_for(11)
    ref = native(served.values, inputs)[served.out]
    with ShardedService(served.compiled, workers=2, name="warm_t",
                        build_kwargs={"store": "ro",
                                      "cache_dir": cache_dir}) as service:
        assert service.wait_ready(timeout=120) == "native"
        with service.run(served.values, inputs, timeout=120) as frame:
            assert frame.backend == "native"
            assert np.array_equal(frame.outputs[served.out], ref)
        provenance = service.build_provenance()
    assert len(provenance) == 2, provenance
    for shard in provenance.values():
        assert shard["loaded_from_store"] is True, provenance
        assert shard["compile_s"] == 0.0, provenance


def test_differential_fuzz_through_router():
    """Random frames through a 2-worker router vs direct interpreter
    execution; native backend rides along when a compiler is present
    (backend="auto" flips mid-stream, outputs must stay identical)."""
    served = make_served(rows=18, cols=22, tiles=(8, 8), name="rfz")
    backend = "auto" if compiler_available() else "interpreter"
    with ShardedService(served.compiled, workers=2, backend=backend,
                        max_queue=32, name="fuzz_t") as service:
        service.wait_ready(timeout=240)
        rng = np.random.default_rng(FUZZ_SEED)
        for _ in range(FUZZ_N):
            seed = int(rng.integers(0, 2**31))
            inputs = served.input_for(seed)
            ref = served.direct(inputs)
            with service.submit(served.values,
                                inputs).result(timeout=240) as frame:
                assert np.allclose(frame.outputs[served.out], ref,
                                   rtol=1e-5, atol=1e-5), \
                    f"router/{frame.backend} diverged at seed {seed}"
