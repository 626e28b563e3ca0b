"""Precision narrowing in the C backend: storage types, footprint,
output equivalence on every app, and the narrow=False no-op guarantee."""

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps import ALL_APPS, iunsharp
from repro.bench.harness import DEFAULT_TILES, make_instance
from repro.codegen.build import build_native, compiler_available
from repro.codegen.cgen import CGenerator, generate_c
from repro.compiler.plan import compile_plan

SIZE = {"R": 48, "C": 40}
TILES = (16, 16)


def _plans():
    app = iunsharp.build_pipeline()
    values = {app.params[k]: v for k, v in SIZE.items()}
    plain = compile_plan(app.outputs, values,
                         CompileOptions.optimized(TILES))
    narrow = compile_plan(app.outputs, values,
                          CompileOptions.optimized(TILES).with_narrow(True))
    return app, values, plain, narrow


def _arena_bytes(plan) -> int:
    gen = CGenerator(plan)
    return sum(gen._arena_layout(gp)[1]
               for gp in plan.group_plans if gp.is_tiled)


def test_narrowed_scratch_types_in_source():
    _, _, plain, narrow = _plans()
    src_plain = generate_c(plain)
    src_narrow = generate_c(narrow)
    # iblurx/iblury scratchpads are Int declared, UShort narrowed
    assert "unsigned short" not in src_plain
    assert "unsigned short" in src_narrow


def test_narrow_off_is_byte_identical():
    """Codegen must consult only ``plan.narrowing``: with no decisions
    the emitted source is byte-for-byte what the plain plan produces."""
    _, _, plain, narrow = _plans()
    src_plain = generate_c(plain)
    narrow.narrowing = {}
    assert generate_c(narrow) == src_plain


def test_scratch_footprint_reduced():
    _, _, plain, narrow = _plans()
    before = _arena_bytes(plain)
    after = _arena_bytes(narrow)
    assert before > 0
    # Int -> UShort on both scratchpads halves the arena
    assert before / after >= 1.9


def test_explain_reports_narrowing():
    app = iunsharp.build_pipeline()
    values = {app.params[k]: v for k, v in SIZE.items()}
    narrowed = compile_pipeline(
        app.outputs, values, CompileOptions.optimized(TILES).with_narrow(True))
    text = narrowed.explain()
    assert "value ranges & narrowing" in text
    assert "narrowed" in text and "UShort" in text
    plain = compile_pipeline(app.outputs, values,
                             CompileOptions.optimized(TILES))
    assert "value ranges & narrowing" not in plain.explain()


def _assert_native_identical(plain, narrow, values, inputs, label):
    out_plain = build_native(plain, f"{label}_off")(values, inputs)
    out_narrow = build_native(narrow, f"{label}_on")(values, inputs)
    for key, arr in out_plain.items():
        assert arr.dtype == out_narrow[key].dtype
        assert np.array_equal(arr, out_narrow[key]), key


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
def test_narrowed_native_output_bit_identical():
    app, values, plain, narrow = _plans()
    inputs = app.make_inputs(values, np.random.default_rng(5))
    _assert_native_identical(plain, narrow, values, inputs, "narrow")


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_narrow_on_off_identical_every_app(name):
    """Narrowing is invisible in every app's outputs: an app it makes no
    decision for emits byte-identical C, one it narrows computes
    bit-identical native outputs."""
    instance = make_instance(name, "tiny")
    options = CompileOptions.optimized(DEFAULT_TILES[name])
    plain = compile_plan(instance.app.outputs, instance.values, options)
    narrow = compile_plan(instance.app.outputs, instance.values,
                          options.with_narrow(True))
    if not narrow.narrowing:
        assert generate_c(narrow) == generate_c(plain)
        return
    if not compiler_available():
        pytest.skip("no C compiler")
    _assert_native_identical(plain, narrow, instance.values,
                             instance.inputs, f"narrow_{name}")
