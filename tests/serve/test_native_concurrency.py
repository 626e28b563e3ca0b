"""Native re-entrancy and call-locking tests.

Specialized builds keep scratch arenas inside the ``.so``, but every
call checks out its own arena set (one slot per OpenMP thread) and
returns it when done, so uninstrumented artifacts are re-entrant:
concurrent calls into *one artifact* run at once, take no lock, and
compute the same pixels as sequential calls, also while another thread
releases the idle arenas.  Instrumented builds still share global
timers and tile counters; for them the lock lives with the artifact,
not the Python wrapper — two wrappers loaded from the same cached
``.so`` share the library state, and two different artifacts share
nothing.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.bench.harness import APP_BUILDERS, DEFAULT_TILES, make_instance
from repro.codegen.build import (
    _artifact_lock, build_native, compiler_available,
)
from tests.serve.conftest import make_served

pytestmark = pytest.mark.skipif(not compiler_available(),
                                reason="no C compiler found")


def test_artifact_lock_registry_keys_on_path(tmp_path):
    a1 = _artifact_lock(tmp_path / "a.so")
    a2 = _artifact_lock(str(tmp_path / "a.so"))
    b = _artifact_lock(tmp_path / "b.so")
    assert a1 is a2  # Path vs str, same artifact -> one lock
    assert a1 is not b


def test_same_artifact_shares_one_lock(served):
    """Two NativePipeline instances of one plan (warm cache, same .so)
    must coordinate through the same lock object."""
    nat1 = build_native(served.compiled.plan, "lockshare")
    nat2 = build_native(served.compiled.plan, "lockshare")
    assert nat1._call_lock is nat2._call_lock


def test_plain_build_is_lock_free():
    """An uninstrumented, arena-free build (base options: no tiling, so
    no scratch) mutates no shared library state and takes no lock."""
    srv = make_served(name="lockfree")
    plain = compile_pipeline(
        srv.compiled.plan.outputs, srv.values, CompileOptions.base(),
        name="lockfree_base")
    nat = build_native(plain.plan, "lockfree_base")
    assert not nat.instrumented
    assert not nat.has_arena
    assert not nat.needs_call_lock


def test_instrumented_build_needs_lock(served):
    nat = build_native(served.compiled.plan, "locked", instrument=True)
    assert nat.instrumented
    assert nat.has_arena
    assert nat.needs_call_lock


def test_arena_build_is_lock_free(served):
    """Arenas alone no longer call for the lock: they are per call."""
    nat = build_native(served.compiled.plan, "arena_free")
    assert nat.has_arena
    assert not nat.instrumented
    assert not nat.needs_call_lock


def test_same_artifact_call_runs_while_its_lock_is_held(served):
    """Regression: a call into an uninstrumented artifact with arenas
    completes while another thread holds *that* artifact's lock — the
    lock is no longer on its path."""
    nat = build_native(served.compiled.plan, "reentrant")
    inputs = served.input_for(0)
    want = nat(served.values, inputs)[served.out]
    result: dict = {}

    def call() -> None:
        result["out"] = nat(served.values, inputs, n_threads=2)[served.out]

    with nat._call_lock:  # the same artifact "mid-call"
        thread = threading.Thread(target=call)
        thread.start()
        thread.join(60)
        assert not thread.is_alive(), \
            "call blocked on its own artifact's lock"
    assert np.array_equal(result["out"], want)


def test_distinct_artifacts_do_not_serialize():
    """Regression: holding artifact A's call lock must not block a call
    into artifact B — per-artifact locks, not a global one."""
    a = make_served(rows=26, cols=28, name="nca")
    b = make_served(rows=24, cols=30, name="ncb")
    nat_a = build_native(a.compiled.plan, "nca")
    nat_b = build_native(b.compiled.plan, "ncb")
    assert nat_a._call_lock is not nat_b._call_lock

    inputs_b = b.input_for(0)
    want_b = b.direct(inputs_b)
    result: dict = {}

    def call_b() -> None:
        result["out"] = nat_b(b.values, inputs_b)[b.out]

    with nat_a._call_lock:  # A "mid-call"
        thread = threading.Thread(target=call_b)
        thread.start()
        thread.join(60)
        assert not thread.is_alive(), \
            "call into artifact B blocked on artifact A's lock"
    assert np.allclose(result["out"], want_b, rtol=1e-5, atol=1e-6)


def test_concurrent_services_on_distinct_pipelines(tmp_path):
    """Two services, two artifacts: native frames flow through both at
    once and every result is correct."""
    from repro.serve import PipelineService

    pipes = [make_served(rows=26, cols=26, name=f"twin{i}")
             for i in range(2)]
    services = [PipelineService(p.compiled, workers=1, backend="auto")
                for p in pipes]
    try:
        for service in services:
            assert service.wait_ready(180) == "native"
        errors: list = []

        def client(srv, p) -> None:
            try:
                for seed in range(4):
                    inputs = p.input_for(seed)
                    with srv.run(p.values, inputs) as frame:
                        assert frame.backend == "native"
                        assert np.allclose(frame.outputs[p.out],
                                           p.direct(inputs),
                                           rtol=1e-5, atol=1e-6)
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(s, p))
                   for s, p in zip(services, pipes)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for service in services:
            assert service.stats().native_frames == 4
    finally:
        for service in services:
            service.close()


def _run_concurrently(*targets) -> None:
    """Start one thread per target behind a barrier; re-raise the first
    error any of them hit."""
    barrier = threading.Barrier(len(targets))
    errors: list = []

    def run(target) -> None:
        try:
            barrier.wait(30)
            target()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(target,))
               for target in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
    assert not any(t.is_alive() for t in threads), "a caller hung"
    if errors:
        raise errors[0]


CALLERS = 2
ROUNDS = 4


@pytest.mark.parametrize("name", tuple(APP_BUILDERS))
def test_concurrent_calls_match_sequential(name):
    """Two threads call one artifact at once, each with its own seeded
    frames, alternating 1- and 2-thread OpenMP teams: every output is
    bit-identical to a sequential call on the same frame."""
    instance = make_instance(name, "tiny")
    app = instance.app
    compiled = compile_pipeline(app.outputs, instance.values,
                                CompileOptions.optimized(DEFAULT_TILES[name]),
                                name=f"reent_{name}")
    nat = build_native(compiled.plan, f"reent_{name}")
    assert not nat.needs_call_lock
    frames = [app.make_inputs(instance.values, np.random.default_rng(seed))
              for seed in range(CALLERS)]
    want = [nat(instance.values, f) for f in frames]
    got: list = [[] for _ in range(CALLERS)]

    def caller(k: int) -> None:
        for r in range(ROUNDS):
            got[k].append(nat(instance.values, frames[k],
                              n_threads=1 + (r + k) % 2))

    _run_concurrently(*(lambda k=k: caller(k) for k in range(CALLERS)))
    for k in range(CALLERS):
        for out in got[k]:
            assert out.keys() == want[k].keys()
            for key in out:
                assert np.array_equal(out[key], want[k][key]), (k, key)
    nat.release()


def test_release_while_calling_changes_no_pixel():
    """``release()`` in a loop while two threads call: it frees idle
    arena sets only, so nothing crashes and every output is exact."""
    instance = make_instance("bilateral", "tiny")
    app = instance.app
    compiled = compile_pipeline(
        app.outputs, instance.values,
        CompileOptions.optimized(DEFAULT_TILES["bilateral"]),
        name="reent_release")
    nat = build_native(compiled.plan, "reent_release")
    assert nat.has_arena and not nat.needs_call_lock
    frames = [app.make_inputs(instance.values, np.random.default_rng(seed))
              for seed in range(CALLERS)]
    want = [nat(instance.values, f) for f in frames]
    finished: list = []
    releases = [0]
    mismatches: list = []

    def caller(k: int) -> None:
        try:
            for r in range(3 * ROUNDS):
                out = nat(instance.values, frames[k],
                          n_threads=1 + (r + k) % 2)
                for key in out:
                    if not np.array_equal(out[key], want[k][key]):
                        mismatches.append((k, r, key))
        finally:
            finished.append(k)

    def releaser() -> None:
        while len(finished) < CALLERS:
            nat.release()
            releases[0] += 1

    _run_concurrently(lambda: caller(0), lambda: caller(1), releaser)
    assert not mismatches, mismatches
    assert releases[0] > 0
    nat.release()
