"""Tests for the top-level CompiledPipeline API."""

import numpy as np
import pytest

from repro import CompileOptions, CompiledPipeline, compile_pipeline
from repro.apps.harris import build_pipeline


@pytest.fixture(scope="module")
def compiled():
    app = build_pipeline()
    est = {app.params["R"]: 128, app.params["C"]: 128}
    return app, est, compile_pipeline(app.outputs, est,
                                      CompileOptions.optimized((16, 64)),
                                      name="api_harris")


def test_summary_structure(compiled):
    app, est, cp = compiled
    text = cp.summary()
    assert "stages" in text and "group" in text and "scratch" in text


def test_options_and_outputs_exposed(compiled):
    app, est, cp = compiled
    assert cp.options.tile_sizes == (16, 64)
    assert [s.name for s in cp.outputs] == ["harris"]


def test_callable_and_execute_alias(compiled):
    """Two interpreter calls on the same inputs agree."""
    app, est, cp = compiled
    rng = np.random.default_rng(0)
    inputs = app.make_inputs(est, rng)
    a = cp(est, inputs)["harris"]
    b = cp(est, inputs)["harris"]
    np.testing.assert_array_equal(a, b)


def test_c_source_stable(compiled):
    app, est, cp = compiled
    assert cp.c_source() == cp.c_source()


def test_build_cached(compiled):
    from repro.codegen.build import compiler_available
    if not compiler_available():
        pytest.skip("no C compiler")
    app, est, cp = compiled
    assert cp.build() is cp.build()


def test_build_kwargs_not_stale(compiled):
    """build() then build(vectorize=False) must not return the stale
    vectorized binary — the memo is keyed on the build options."""
    from repro.codegen.build import compiler_available
    if not compiler_available():
        pytest.skip("no C compiler")
    app, est, cp = compiled
    vec = cp.build()
    novec = cp.build(vectorize=False)
    assert vec is not novec
    assert vec.lib_path != novec.lib_path
    # each option set is still memoized individually
    assert cp.build() is vec
    assert cp.build(vectorize=False) is novec


def test_native_pipeline_exposes_source(compiled):
    from repro.codegen.build import compiler_available
    if not compiler_available():
        pytest.skip("no C compiler")
    app, est, cp = compiled
    native = cp.build()
    assert "pipe_api_harris" in native.source
    assert native.lib_path.exists()


def test_version_exported():
    import repro
    assert repro.__version__
