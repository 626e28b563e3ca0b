"""Differential tests for fast-path specialization.

Three layers of evidence that the specialized (interior/boundary split,
clamp-free, strength-reduced, SIMD, arena-backed) code is the *same
function* as the legacy always-safe code:

1. bit-identity: every app, at two tile configurations, produces
   byte-for-byte equal outputs with ``specialize`` on and off — and the
   default build equals the safe nests under ``-ftrapping-math``;
2. interpreter agreement: the specialized native build matches the
   interpreter at the repo's standard tolerance;
3. golden-source properties: every ``if (_fastok)`` interior block is
   free of ``iclamp``/``fdiv``/``pmod`` helper calls, while the safe
   residual path keeps them; range-proven data-dependent gathers and
   scatters lose their clamp and bounds test, unproven ones keep them;
   gcc vectorizes bilateral's slice.

Plus lifecycle tests (persistent arena + release), executor pool reuse,
option plumbing, and verifier coverage (clean plans stay clean; a
shrunken interior/halo trips RV202 read containment; the RV302 lint
allows thread-indexed arena-slot writes but still catches races).
"""

import re
import shutil
import subprocess
from dataclasses import replace

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.bench.harness import (
    APP_BUILDERS, DEFAULT_TILES, make_instance, variant_options,
)
from repro.codegen.build import build_flags, build_native, compiler_available
from repro.codegen.cgen import generate_c
from repro.lang import Accumulate, Accumulator, Cast, Float, Function, \
    Image, Int, Interval, Max, Min, Parameter, Sum, Variable
from repro.verify import lint_generated_c, verify_plan

pytestmark = pytest.mark.skipif(not compiler_available(),
                                reason="no C compiler found")

APPS = tuple(APP_BUILDERS)
#: a second tile shape (cycled over group dims) to vary tile alignment
ALT_TILES = (16, 64)

#: native-vs-interpreter tolerances; camera's LUT + data-dependent
#: indexing diverges between evaluation orders independent of
#: specialization (the legacy path shows the same delta), so it gets a
#: looser bound.
TOLERANCES = {"camera": dict(rtol=1e-3, atol=5e-3)}
DEFAULT_TOL = dict(rtol=1e-5, atol=1e-6)


def _build_pair(instance, tiles, label):
    """(specialized native, legacy native, specialized compiled)."""
    on = CompileOptions.optimized(tiles)
    off = on.with_specialize(False, simd=False)
    compiled_on = compile_pipeline(instance.app.outputs, instance.values,
                                   on, name=f"{label}_on")
    compiled_off = compile_pipeline(instance.app.outputs, instance.values,
                                    off, name=f"{label}_off")
    nat_on = build_native(compiled_on.plan, f"{label}_on")
    nat_off = build_native(compiled_off.plan, f"{label}_off")
    return nat_on, nat_off, compiled_on


@pytest.mark.parametrize("tiles_key", ["default", "alt"])
@pytest.mark.parametrize("name", APPS)
def test_bit_identical_specialize_on_off(name, tiles_key):
    instance = make_instance(name, "tiny")
    tiles = DEFAULT_TILES[name] if tiles_key == "default" else ALT_TILES
    nat_on, nat_off, _ = _build_pair(instance, tiles,
                                     f"spec_{name}_{tiles_key}")
    out_on = nat_on(instance.values, instance.inputs, n_threads=2)
    out_off = nat_off(instance.values, instance.inputs, n_threads=2)
    for f in instance.app.outputs:
        np.testing.assert_array_equal(out_on[f.name], out_off[f.name])
    nat_on.release()


@pytest.mark.parametrize("name", APPS)
def test_default_build_preserves_trapping_math_values(name):
    """``-fno-trapping-math`` and the range proofs change no bit: the
    default build equals the clamped, guarded nests compiled under the
    old trap semantics."""
    instance = make_instance(name, "tiny")
    on = CompileOptions.optimized(DEFAULT_TILES[name])
    off = on.with_specialize(False, simd=False)
    nat_on = build_native(
        compile_pipeline(instance.app.outputs, instance.values, on,
                         name=f"trap_{name}_on").plan, f"trap_{name}_on")
    nat_off = build_native(
        compile_pipeline(instance.app.outputs, instance.values, off,
                         name=f"trap_{name}_off").plan, f"trap_{name}_off",
        extra_flags=("-ftrapping-math",))
    out_on = nat_on(instance.values, instance.inputs)
    out_off = nat_off(instance.values, instance.inputs)
    for f in instance.app.outputs:
        np.testing.assert_array_equal(out_on[f.name], out_off[f.name])
    nat_on.release()


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc's "
                    "-fopt-info")
def test_bilateral_slice_interior_loop_is_vectorized(tmp_path):
    """Under the default flags gcc vectorizes the slice's ``omp simd``
    loop; with ``-ftrapping-math`` it reports "control flow in loop"."""
    instance = make_instance("bilateral", "tiny")
    plan = compile_pipeline(instance.app.outputs, instance.values,
                            CompileOptions.optimized((32, 64, 16)),
                            name="vec_bilateral").plan
    source = generate_c(plan)
    fast = source.index("if (_fastok)",
                        source.index("/* case 0 of bilateral */"))
    pragma = source.count("\n", 0, source.index("#pragma omp simd", fast))
    c_file = tmp_path / "bilateral.c"
    c_file.write_text(source)
    result = subprocess.run(
        ["gcc", *build_flags(), "-fopt-info-vec-optimized", str(c_file),
         "-o", str(tmp_path / "bilateral.so"), "-lm"],
        capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    vectorized = {int(m.group(1)) for m in re.finditer(
        r"bilateral\.c:(\d+):\d+: optimized: loop vectorized",
        result.stderr)}
    # gcc names the loop by its header or its first body line (1-based)
    assert vectorized & {pragma + 2, pragma + 3}, result.stderr


@pytest.mark.parametrize("name", APPS)
def test_specialized_native_matches_interpreter(name):
    instance = make_instance(name, "tiny")
    options = CompileOptions.optimized(DEFAULT_TILES[name])
    compiled = compile_pipeline(instance.app.outputs, instance.values,
                                options, name=f"specint_{name}")
    native = build_native(compiled.plan, f"specint_{name}")
    nat = native(instance.values, instance.inputs, n_threads=2)
    interp = compiled(instance.values, instance.inputs)
    tol = TOLERANCES.get(name, DEFAULT_TOL)
    for f in instance.app.outputs:
        np.testing.assert_allclose(nat[f.name], interp[f.name], **tol)


# -- golden-source properties ---------------------------------------------

def _fast_blocks(source: str) -> list[str]:
    """The brace-matched bodies of every ``if (_fastok)`` interior nest."""
    blocks, i = [], 0
    while True:
        i = source.find("if (_fastok)", i)
        if i < 0:
            return blocks
        j = source.index("{", i)
        depth, k = 0, j
        while True:
            if source[k] == "{":
                depth += 1
            elif source[k] == "}":
                depth -= 1
                if depth == 0:
                    break
            k += 1
        blocks.append(source[j:k + 1])
        i = k


def _clamped_stencil():
    """A boundary-clamped blur: ``I(max(x-1,0)) .. I(min(x+1,R-1))`` —
    the index expressions are non-affine, so the safe code routes them
    through ``iclamp``; their integer range is derivable, so the
    interior nest may drop it."""
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    x = Variable("x")
    blur = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float,
                    name="cblur")
    blur.defn = (I(Max(x - 1, 0)) + I(x) + I(Min(x + 1, R - 1))) / 3.0
    return R, I, blur


def test_clamped_stencil_interior_is_clamp_free():
    R, I, blur = _clamped_stencil()
    compiled = compile_pipeline([blur], {R: 300},
                                CompileOptions.optimized((32,)),
                                name="golden_clamped")
    source = generate_c(compiled.plan)
    blocks = _fast_blocks(source)
    assert blocks, "expected at least one specialized interior nest"
    for block in blocks:
        assert "iclamp(" not in block
        assert "fdiv(" not in block
        assert "pmod(" not in block
    # the residual path keeps the safe clamped form
    assert "iclamp(" in source
    # and the specialized build still matches the interpreter
    rng = np.random.default_rng(3)
    data = rng.random(300, dtype=np.float32)
    native = build_native(compiled.plan, "golden_clamped")
    nat = native({R: 300}, {I: data})
    interp = compiled({R: 300}, {I: data})
    np.testing.assert_allclose(nat["cblur"], interp["cblur"], rtol=1e-6)


def test_bilateral_data_dependent_accesses_are_range_proven():
    """bilateral's grid taps and histogram bins index by *image values*,
    but through ``Cast(Int, Min(Max(v, 0.0), k))`` — NaN-free whatever
    the pixel, so inside the grid: the slice's fast nest has no
    ``iclamp`` and the scatter fast nests neither a bounds test nor an
    ``fdiv``."""
    instance = make_instance("bilateral", "tiny")
    compiled = compile_pipeline(instance.app.outputs, instance.values,
                                CompileOptions.optimized((32, 64, 16)),
                                name="golden_bilateral")
    source = generate_c(compiled.plan)
    blocks = _fast_blocks(source)
    scatters = [b for b in blocks if "+=" in b]
    slices = [b for b in blocks if "out_bilateral[" in b]
    # gridw and gridv, in the single-frame and the batch entry point
    assert len(scatters) == 4 and len(slices) == 2
    for block in blocks:
        assert "iclamp(" not in block
        assert "fdiv(" not in block
        assert "pmod(" not in block
    for block in scatters:
        assert "if (" not in block
    # the fallback nests keep the safe forms (the prelude defines iclamp)
    assert source.count("iclamp(") > 1
    assert "if (ti0 >=" in source


def _data_dependent_pair(index):
    """A 17-entry LUT gather ``lut(index(v))`` and a 17-bin histogram
    scatter ``hist(index(v)) += 1`` over a float image ``v``."""
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    x, z = Variable("x"), Variable("z")
    bins = Interval(0, 16, 1)
    lut = Function(varDom=([z], [bins]), typ=Float, name="lut")
    lut.defn = Cast(Float, z) * 0.5
    gather = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float,
                      name="gather")
    gather.defn = lut(index(I(x)))
    hist = Accumulator(redDom=([x], [Interval(0, R - 1, 1)]),
                       varDom=([z], [bins]), typ=Int, name="hist")
    hist.defn = Accumulate(hist(index(I(x))), 1, Sum)
    return R, I, [gather, hist]


#: index expressions that must keep their clamp and bounds test
UNPROVEN_INDICES = {
    # no bound at all
    "unbounded": lambda v: Cast(Int, v * 16),
    # bounded, but one bin wider than the 17 bins [0, 16]
    "wider": lambda v: Cast(Int, Min(Max(v * 16, 0.0), 17.0)),
    # literal first: dmax(0.0, NaN) and dmin(16.0, NaN) are NaN, and
    # (int)NaN is nowhere near the table
    "literal_first": lambda v: Cast(Int, Max(0.0, Min(16.0, v * 16))),
}


@pytest.mark.parametrize("case", sorted(UNPROVEN_INDICES))
def test_unproven_data_dependent_accesses_keep_clamp_and_guard(case):
    R, I, outs = _data_dependent_pair(UNPROVEN_INDICES[case])
    compiled = compile_pipeline(outs, {R: 200},
                                CompileOptions.optimized((32,)),
                                name=f"unproven_{case}")
    source = generate_c(compiled.plan)
    gather = source[source.index("/* case 0 of gather */"):]
    gather = gather.split("/* group")[0]
    assert "iclamp(" in gather
    assert all("iclamp(" in b for b in _fast_blocks(gather))
    assert "if (ti0 >=" in source
    assert not any("+=" in b for b in _fast_blocks(source))
    # and the kept clamp and test do their job on hostile pixels
    data = np.array([np.nan, np.inf, -np.inf, -5.0, 1e30, 0.5, 0.25, 0.9]
                    * 25, dtype=np.float32)
    legacy = compile_pipeline(
        outs, {R: 200},
        CompileOptions.optimized((32,)).with_specialize(False, simd=False),
        name=f"unproven_{case}_off")
    on = build_native(compiled.plan, f"unproven_{case}")({R: 200}, {I: data})
    off = build_native(legacy.plan, f"unproven_{case}_off")({R: 200},
                                                            {I: data})
    for name in ("gather", "hist"):
        np.testing.assert_array_equal(on[name], off[name])


def test_scatter_bin_loaded_outside_the_inner_loop():
    """A proven bin that loads through the *outer* reduction variable
    only must not be hoisted above the inner loop (its load is CSE'd
    inside it)."""
    R, C = Parameter(Int, "R"), Parameter(Int, "C")
    I = Image(Float, [R], name="I")
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    hist = Accumulator(redDom=([x, y], [Interval(0, R - 1, 1),
                                        Interval(0, C - 1, 1)]),
                       varDom=([z], [Interval(0, 16, 1)]), typ=Int,
                       name="rowhist")
    hist.defn = Accumulate(
        hist(Cast(Int, Min(Max(I(x) * 16.0, 0.0), 16.0))), 1, Sum)
    values = {R: 40, C: 24}
    options = CompileOptions.optimized((32,))
    on = compile_pipeline([hist], values, options, name="rowhist_on")
    # the bin is proven at compile time: no bounds test, no guard
    source = generate_c(on.plan)
    assert "if (ti0" not in source and "_fastok" not in source
    off = compile_pipeline([hist], values,
                           options.with_specialize(False, simd=False),
                           name="rowhist_off")
    data = np.linspace(-0.5, 1.5, 40, dtype=np.float32)
    data[::7] = np.nan
    out_on = build_native(on.plan, "rowhist_on")(values, {I: data})
    out_off = build_native(off.plan, "rowhist_off")(values, {I: data})
    np.testing.assert_array_equal(out_on["rowhist"], out_off["rowhist"])


def _upsample_chain():
    R = Parameter(Int, "R")
    I = Image(Float, [2 * R + 2], name="I")
    x = Variable("x")
    down = Function(varDom=([x], [Interval(0, R, 1)]), typ=Float,
                    name="down")
    down.defn = (I(2 * x) + I(2 * x + 1)) / 2.0
    up = Function(varDom=([x], [Interval(0, 2 * R, 1)]), typ=Float,
                  name="up")
    up.defn = down(x // 2)
    return R, I, up


def test_upsample_interior_blocks_use_native_division():
    R, I, up = _upsample_chain()
    compiled = compile_pipeline([up], {R: 200},
                                CompileOptions.optimized((16,)),
                                name="golden_upsample")
    source = generate_c(compiled.plan)
    blocks = _fast_blocks(source)
    assert blocks, "expected a specialized interior nest"
    for block in blocks:
        assert "fdiv(" not in block
        assert "pmod(" not in block
    # the safe path still strength-protects the floor division
    assert "fdiv(" in source
    # and the specialized build still matches the interpreter exactly
    rng = np.random.default_rng(5)
    data = rng.random(402, dtype=np.float32)
    native = build_native(compiled.plan, "golden_upsample")
    nat = native({R: 200}, {I: data})
    interp = compiled({R: 200}, {I: data})
    np.testing.assert_allclose(nat["up"], interp["up"], rtol=1e-6)


def test_legacy_source_has_no_fast_blocks():
    instance = make_instance("harris", "tiny")
    options = CompileOptions.optimized((32, 256)) \
        .with_specialize(False, simd=False)
    compiled = compile_pipeline(instance.app.outputs, instance.values,
                                options, name="golden_harris_legacy")
    source = generate_c(compiled.plan)
    assert "_fastok" not in source
    assert "repro_arena" not in source


# -- arena lifecycle ------------------------------------------------------

def test_arena_release_and_reuse():
    instance = make_instance("harris", "tiny")
    compiled = compile_pipeline(instance.app.outputs, instance.values,
                                CompileOptions.optimized((32, 256)),
                                name="arena_life")
    native = build_native(compiled.plan, "arena_life")
    assert native.has_arena
    first = native(instance.values, instance.inputs, n_threads=2)
    native.release()
    native.release()  # idempotent
    # calling again re-reserves the arena and still computes correctly
    again = native(instance.values, instance.inputs, n_threads=2)
    for f in instance.app.outputs:
        np.testing.assert_array_equal(first[f.name], again[f.name])
    native.release()


def test_legacy_build_has_no_arena():
    instance = make_instance("harris", "tiny")
    options = CompileOptions.optimized((32, 256)) \
        .with_specialize(False, simd=False)
    compiled = compile_pipeline(instance.app.outputs, instance.values,
                                options, name="arena_legacy")
    native = build_native(compiled.plan, "arena_legacy")
    assert not native.has_arena
    native.release()  # a no-op, must not raise


# -- executor pool reuse --------------------------------------------------

def test_worker_pools_are_process_wide():
    from repro.runtime.executor import get_worker_pool
    assert get_worker_pool(2) is get_worker_pool(2)
    assert get_worker_pool(2) is not get_worker_pool(3)
    with pytest.raises(ValueError):
        get_worker_pool(0)


# -- option plumbing ------------------------------------------------------

def test_with_specialize_round_trip():
    opts = CompileOptions.optimized((32, 256))
    assert opts.specialize and opts.simd
    off = opts.with_specialize(False, simd=False)
    assert not off.specialize and not off.simd
    assert off.with_specialize(True, simd=True) == opts
    # simd defaults to unchanged
    assert opts.with_specialize(False).simd is True


def test_variant_options_gate_simd_on_vectorize():
    for name in ("harris", "unsharp"):
        opts, vec = variant_options(name, "opt")
        assert not vec and not opts.simd
        opts, vec = variant_options(name, "opt+vec")
        assert vec and opts.simd
        opts, vec = variant_options(name, "base")
        assert not vec and not opts.simd


# -- verifier coverage ----------------------------------------------------

@pytest.mark.parametrize("name", ["harris", "interpolate"])
def test_verify_clean_with_specialization(name):
    instance = make_instance(name, "tiny")
    plan = compile_pipeline(instance.app.outputs, instance.values,
                            CompileOptions.optimized(DEFAULT_TILES[name]),
                            name=f"vspec_{name}").plan
    report = verify_plan(plan, lint_c=True)
    assert report.ok, report.render()


def test_shrunken_interior_halo_trips_read_containment():
    """Simulate a guard/interior derivation that under-estimated the
    halo a tile must evaluate: reads escape the evaluation regions and
    RV202 must fire."""
    from fractions import Fraction
    instance = make_instance("harris", "tiny")
    plan = compile_pipeline(instance.app.outputs, instance.values,
                            CompileOptions.optimized((32, 256)),
                            name="vspec_shrunk").plan
    gp = plan.group_plans[0]
    for stage, halo in list(gp.group.halos.items()):
        gp.group.halos[stage] = type(halo)(
            tuple(max(Fraction(0), l - 1) for l in halo.left),
            tuple(max(Fraction(0), r - 1) for r in halo.right))
    report = verify_plan(plan, checks=("storage",))
    assert "RV202" in report.codes(), report.render()


def test_rv302_allows_thread_indexed_arena_writes():
    source = "\n".join([
        "static void** repro_arena_slots = NULL;",
        "#pragma omp parallel",
        "{",
        "  long _tid = omp_get_thread_num();",
        "  repro_arena_slots[_tid] = NULL;",
        "}",
    ])
    assert lint_generated_c(source) == []


def test_rv302_still_catches_shared_static_writes():
    source = "\n".join([
        "static void** repro_arena_slots = NULL;",
        "#pragma omp parallel",
        "{",
        "  repro_arena_slots[0] = NULL;",
        "}",
    ])
    diags = lint_generated_c(source)
    assert diags and all(d.code == "RV302" for d in diags)


def test_specialized_app_source_passes_lint():
    instance = make_instance("interpolate", "tiny")
    plan = compile_pipeline(instance.app.outputs, instance.values,
                            CompileOptions.optimized((8, 64, 256)),
                            name="lint_interp").plan
    assert lint_generated_c(generate_c(plan)) == []
