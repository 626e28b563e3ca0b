"""Native (gcc + ctypes) backend equivalence tests.

Every pipeline is executed with the interpreter backend and the compiled
C backend; results must agree to floating tolerance.  Skipped entirely
when no C compiler is available.
"""

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps import harris as harris_app
from repro.codegen.build import build_native, compiler_available
from repro.lang import (
    Accumulate, Accumulator, Case, Cast, Condition, Float, Function, Image,
    Int, Interval, Max, Min, Parameter, Select, Stencil, Sum, UChar,
    Variable,
)

pytestmark = pytest.mark.skipif(not compiler_available(),
                                reason="no C compiler found")

RNG = np.random.default_rng(11)


def both_backends(compiled, name, values, inputs, n_threads=1):
    interp = compiled(values, inputs)
    native = build_native(compiled.plan, name)
    nat = native(values, inputs, n_threads=n_threads)
    return interp, nat


@pytest.mark.parametrize("options,label", [
    (CompileOptions.optimized((32, 256)), "opt"),
    (CompileOptions.optimized((16, 16)), "opt16"),
    (CompileOptions.base(), "base"),
])
def test_harris_native_matches_interpreter(options, label):
    app = harris_app.build_pipeline()
    R, C = app.params["R"], app.params["C"]
    values = {R: 61, C: 45}
    inputs = app.make_inputs(values, RNG)
    compiled = compile_pipeline(app.outputs, values, options,
                                name=f"nat_harris_{label}")
    interp, nat = both_backends(compiled, f"nat_harris_{label}",
                                values, inputs, n_threads=2)
    np.testing.assert_allclose(nat["harris"], interp["harris"],
                               rtol=1e-5, atol=1e-6)


def test_native_novec_flag_builds():
    app = harris_app.build_pipeline()
    R, C = app.params["R"], app.params["C"]
    values = {R: 33, C: 33}
    inputs = app.make_inputs(values, RNG)
    compiled = compile_pipeline(app.outputs, values,
                                CompileOptions.optimized((16, 16)),
                                name="nat_novec")
    native = build_native(compiled.plan, "nat_novec", vectorize=False)
    expected = compiled(values, inputs)["harris"]
    out = native(values, inputs)["harris"]
    np.testing.assert_allclose(out, expected, rtol=1e-5, atol=1e-6)


def test_native_histogram():
    R, C = Parameter(Int, "R"), Parameter(Int, "C")
    I = Image(UChar, [R, C], name="I")
    x, y, b = Variable("x"), Variable("y"), Variable("b")
    row, col = Interval(0, R - 1, 1), Interval(0, C - 1, 1)
    hist = Accumulator(redDom=([x, y], [row, col]),
                       varDom=([b], [Interval(0, 255, 1)]),
                       typ=Int, name="hist")
    hist.defn = Accumulate(hist(Cast(Int, I(x, y))), 1, Sum)
    values = {R: 37, C: 53}
    img = RNG.integers(0, 256, size=(37, 53), dtype=np.uint8)
    compiled = compile_pipeline([hist], values, name="nat_hist")
    interp, nat = both_backends(compiled, "nat_hist", values, {I: img})
    np.testing.assert_array_equal(nat["hist"], interp["hist"])


def test_native_time_iterated():
    R = Parameter(Int, "R")
    I = Image(Float, [R + 2], name="I")
    t, x = Variable("t"), Variable("x")
    f = Function(varDom=([t, x], [Interval(0, 4, 1), Interval(0, R + 1, 1)]),
                 typ=Float, name="f")
    f.defn = [
        Case(Condition(t, "==", 0), I(x)),
        Case(Condition(t, ">=", 1) & Condition(x, ">=", 1)
             & Condition(x, "<=", R),
             (f(t - 1, x - 1) + f(t - 1, x) + f(t - 1, x + 1)) / 3.0),
    ]
    values = {R: 40}
    data = RNG.random(42, dtype=np.float32)
    compiled = compile_pipeline([f], values, name="nat_jacobi")
    interp, nat = both_backends(compiled, "nat_jacobi", values, {I: data})
    np.testing.assert_allclose(nat["f"], interp["f"], rtol=1e-5)


def test_native_sampling_chain():
    R = Parameter(Int, "R")
    I = Image(Float, [2 * R + 2], name="I")
    x = Variable("x")
    down = Function(varDom=([x], [Interval(0, R, 1)]), typ=Float, name="down")
    down.defn = (I(2 * x) + I(2 * x + 1)) / 2.0
    up = Function(varDom=([x], [Interval(0, 2 * R, 1)]), typ=Float, name="up")
    up.defn = down(x // 2)
    values = {R: 53}
    data = RNG.random(108, dtype=np.float32)
    compiled = compile_pipeline([up], values, CompileOptions.optimized((16,)),
                                name="nat_updown")
    assert len(compiled.plan.group_plans) == 1  # fused across sampling
    interp, nat = both_backends(compiled, "nat_updown", values, {I: data})
    np.testing.assert_allclose(nat["up"], interp["up"], rtol=1e-6)


def test_native_multi_output_liveout_in_group():
    """blur is an output AND consumed in-group by sharp: the C backend
    must give it a scratchpad plus an owned-region copy-out."""
    R = Parameter(Int, "R")
    I = Image(Float, [R + 2], name="I")
    x = Variable("x")
    dom = Interval(0, R + 1, 1)
    c = Condition(x, ">=", 1) & Condition(x, "<=", R)
    blur = Function(varDom=([x], [dom]), typ=Float, name="blur")
    blur.defn = [Case(c, Stencil(I(x), 1.0 / 3, [1, 1, 1]))]
    sharp = Function(varDom=([x], [dom]), typ=Float, name="sharp")
    sharp.defn = [Case(c, I(x) * 2.0 - (blur(x - 1) + blur(x + 1)) / 2.0)]
    values = {R: 300}
    data = RNG.random(302, dtype=np.float32)
    compiled = compile_pipeline([blur, sharp], values,
                                CompileOptions.optimized((32,)),
                                name="nat_multi")
    # both in one tiled group
    assert len(compiled.plan.group_plans) == 1
    interp, nat = both_backends(compiled, "nat_multi", values, {I: data},
                                n_threads=2)
    np.testing.assert_allclose(nat["blur"], interp["blur"], rtol=1e-5)
    np.testing.assert_allclose(nat["sharp"], interp["sharp"], rtol=1e-5)


def test_native_data_dependent_lut():
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    x = Variable("x")
    lut = Function(varDom=([x], [Interval(0, 255, 1)]), typ=Float, name="lut")
    lut.defn = x * x / 255.0
    f = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float, name="f")
    f.defn = lut(Cast(Int, Select(I(x) > 1.0, 255.0, I(x) * 255.0)))
    values = {R: 64}
    data = (RNG.random(64) * 1.2).astype(np.float32)
    compiled = compile_pipeline([f], values, name="nat_lut")
    interp, nat = both_backends(compiled, "nat_lut", values, {I: data})
    np.testing.assert_allclose(nat["f"], interp["f"], rtol=1e-5)


@pytest.mark.parametrize("options,label", [
    (CompileOptions.optimized((16,)), "opt"),
    (CompileOptions.base(), "base"),
])
def test_native_true_division_of_integer_min_max(options, label):
    """``/`` is true division even when both operands are integer
    ``min``/``max`` calls: ``Min(x, 3) / 2`` is 1.5 at ``x = 3``, never
    C's truncated ``1``."""
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    x = Variable("x")
    f = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float, name="f")
    f.defn = I(x) + Min(x, 3) / 2 + Max(x, 5) / 4
    values = {R: 8}
    data = RNG.random(8, dtype=np.float32)
    compiled = compile_pipeline([f], values, options,
                                name=f"nat_minmax_div_{label}")
    interp, nat = both_backends(compiled, f"nat_minmax_div_{label}",
                                values, {I: data})
    xs = np.arange(8)
    expected = data + np.minimum(xs, 3) / 2 + np.maximum(xs, 5) / 4
    np.testing.assert_allclose(interp["f"], expected, rtol=1e-6)
    np.testing.assert_allclose(nat["f"], interp["f"], rtol=1e-6)


def test_native_different_sizes_same_binary():
    """One compiled binary serves multiple parameter values."""
    app = harris_app.build_pipeline()
    R, C = app.params["R"], app.params["C"]
    est = {R: 256, C: 256}
    compiled = compile_pipeline(app.outputs, est,
                                CompileOptions.optimized((32, 256)),
                                name="nat_resize")
    native = build_native(compiled.plan, "nat_resize")
    for r, c in [(31, 97), (64, 64), (130, 40)]:
        values = {R: r, C: c}
        inputs = app.make_inputs(values, RNG)
        expected = app.reference(inputs, values)["harris"]
        out = native(values, inputs)["harris"]
        np.testing.assert_allclose(out, expected, rtol=2e-4, atol=2e-5)
