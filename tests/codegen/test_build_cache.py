"""The persistent, concurrency-safe compiled-artifact cache."""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps.harris import build_pipeline
from repro.codegen.build import (
    CANONICAL_FUNC, CompileCache, build_flags, build_native,
    compile_artifact, compiler_available, find_compiler, get_cache,
    load_native,
)

pytestmark = pytest.mark.skipif(not compiler_available(),
                                reason="no C compiler")

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def plan():
    app = build_pipeline()
    est = {app.params["R"]: 64, app.params["C"]: 64}
    plan = compile_pipeline(app.outputs, est,
                            CompileOptions.optimized((16, 16)),
                            name="cache_harris").plan
    return app, est, plan


def test_digest_ignores_pipeline_name(plan, tmp_path):
    """Identical plans under different names share one artifact."""
    app, est, p = plan
    a = build_native(p, "name_one", cache_dir=tmp_path)
    b = build_native(p, "name_two", cache_dir=tmp_path)
    assert a.lib_path == b.lib_path
    assert a.build_info.cache_hit is False
    assert b.build_info.cache_hit is True
    assert len(list(tmp_path.glob("*.so"))) == 1
    # the cosmetic source listing still carries the caller's name
    assert "pipe_name_one" in a.source
    assert "pipe_name_two" in b.source


def test_digest_keys_on_flags(plan, tmp_path):
    app, est, p = plan
    a = build_native(p, "flags", cache_dir=tmp_path)
    b = build_native(p, "flags", cache_dir=tmp_path, vectorize=False)
    assert a.lib_path != b.lib_path
    assert b.build_info.cache_hit is False
    assert len(list(tmp_path.glob("*.so"))) == 2


def test_key_for_is_deterministic():
    flags = build_flags()
    assert CompileCache.key_for("int x;", flags) == \
        CompileCache.key_for("int x;", flags)
    assert CompileCache.key_for("int x;", flags) != \
        CompileCache.key_for("int y;", flags)
    assert CompileCache.key_for("int x;", flags) != \
        CompileCache.key_for("int x;", build_flags(vectorize=False))


def test_cached_artifact_runs_correctly(plan, tmp_path):
    app, est, p = plan
    inputs = app.make_inputs(est, RNG)
    first = build_native(p, "run1", cache_dir=tmp_path)
    expected = first(est, inputs)["harris"]
    again = build_native(p, "run2", cache_dir=tmp_path)
    assert again.build_info.cache_hit
    np.testing.assert_array_equal(again(est, inputs)["harris"], expected)


def test_stats_and_eviction(plan, tmp_path):
    app, est, p = plan
    cache = get_cache(tmp_path)
    infos = [compile_artifact(p, cache_dir=tmp_path,
                              extra_flags=(f"-DX{i}",))
             for i in range(3)]
    assert len({i.key for i in infos}) == 3
    stats = cache.stats()
    assert stats.misses == 3 and stats.hits == 0
    compile_artifact(p, cache_dir=tmp_path, extra_flags=("-DX0",))
    assert cache.stats().hits == 1
    assert cache.size_bytes() > 0

    removed = cache.evict(max_entries=1)
    assert removed == 2
    assert len(cache.entries()) == 1
    assert cache.stats().evictions == 2
    assert cache.clear() == 1
    assert cache.entries() == []
    assert not list(tmp_path.glob("*.c"))


def test_load_native_survives_missing_source(plan, tmp_path):
    """The .c listing is a cache nicety; losing it must not break load."""
    app, est, p = plan
    info = compile_artifact(p, cache_dir=tmp_path)
    info.c_path.unlink()
    pipe = load_native(p, "nosrc", info)
    assert CANONICAL_FUNC.replace("repro_kernel", "nosrc") in pipe.source
    inputs = app.make_inputs(est, RNG)
    assert pipe(est, inputs)["harris"].shape


def _worker_build(args):
    cache_dir, idx = args
    import numpy as np

    from repro import CompileOptions, compile_pipeline
    from repro.apps.harris import build_pipeline
    from repro.codegen.build import build_native

    app = build_pipeline()
    est = {app.params["R"]: 48, app.params["C"]: 48}
    plan = compile_pipeline(app.outputs, est,
                            CompileOptions.optimized((16, 16)),
                            name="concurrent").plan
    pipe = build_native(plan, f"concurrent_{idx}", cache_dir=cache_dir)
    inputs = app.make_inputs(est, np.random.default_rng(0))
    out = pipe(est, inputs)["harris"]
    return str(pipe.lib_path), float(out.sum())


def test_concurrent_builds_publish_one_valid_artifact(tmp_path):
    """Several processes racing on the same key: exactly one published
    ``.so``, no torn reads, identical results everywhere."""
    n = 4
    with multiprocessing.get_context("spawn").Pool(n) as pool:
        results = pool.map(_worker_build, [(str(tmp_path), i)
                                           for i in range(n)])
    paths = {path for path, _ in results}
    sums = {s for _, s in results}
    assert len(paths) == 1
    assert len(sums) == 1
    published = list(tmp_path.glob("*.so"))
    assert len(published) == 1
    # no leftover temporaries
    assert not list(tmp_path.glob(".*.so")) and \
        not list(tmp_path.glob(".*.c"))


def test_threads_compile_each_key_once(tmp_path):
    """Two threads asking for one key while it compiles: the second
    waits for the build in flight, so gcc runs once — one miss, one
    hit."""
    log, started = tmp_path / "cc.log", tmp_path / "cc.started"
    slow_cc = tmp_path / "slow-cc"
    slow_cc.write_text(f"""#!/bin/sh
echo run >> "{log}"
touch "{started}"
sleep 1
exec "{find_compiler()}" "$@"
""")
    slow_cc.chmod(0o755)
    cache = CompileCache(tmp_path / "cache")
    source = "int repro_once(void) { return 1; }\n"
    infos = []

    def build():
        infos.append(cache.get_or_compile(source, build_flags(),
                                          str(slow_cc)))

    first = threading.Thread(target=build)
    first.start()
    deadline = time.monotonic() + 30
    while not started.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert started.exists(), "the compiler wrapper never ran"
    second = threading.Thread(target=build)
    second.start()
    for thread in (first, second):
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert log.read_text().split() == ["run"]
    stats = cache.stats()
    assert (stats.misses, stats.hits) == (1, 1)
    assert sorted(info.cache_hit for info in infos) == [False, True]
    assert len({info.so_path for info in infos}) == 1


def test_key_locks_under_thread_stress(tmp_path):
    """More threads than cores, a short switch interval, four keys asked
    for by eight threads in different orders: each key is compiled once
    and every other lookup counts a hit (a lost update would show)."""
    import sys
    log = tmp_path / "cc.log"
    fake_cc = tmp_path / "fake-cc"
    fake_cc.write_text(f"""#!/bin/sh
echo run >> "{log}"
while [ $# -gt 0 ]; do
  if [ "$1" = "-o" ]; then : > "$2"; fi
  shift
done
""")
    fake_cc.chmod(0o755)
    cache = CompileCache(tmp_path / "cache")
    sources = [f"int repro_stress_{i};\n" for i in range(4)]
    errors = []

    def build(offset):
        try:
            for i in range(len(sources)):
                cache.get_or_compile(sources[(i + offset) % len(sources)],
                                     build_flags(), str(fake_cc))
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert not errors
    assert len(log.read_text().split()) == len(sources)
    stats = cache.stats()
    assert (stats.misses, stats.hits) == (4, 28)
