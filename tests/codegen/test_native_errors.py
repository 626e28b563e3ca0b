"""Error handling and robustness of the native backend."""

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps.harris import build_pipeline
from repro.codegen.build import (
    BuildError, build_native, compiler_available, find_compiler,
)

pytestmark = pytest.mark.skipif(not compiler_available(),
                                reason="no C compiler")


@pytest.fixture(scope="module")
def native():
    app = build_pipeline()
    est = {app.params["R"]: 64, app.params["C"]: 64}
    plan = compile_pipeline(app.outputs, est,
                            CompileOptions.optimized((16, 16)),
                            name="nat_err").plan
    return app, est, build_native(plan, "nat_err")


def test_missing_parameter_named(native):
    """A missing Parameter raises ValueError naming it, like the
    interpreter backend — not a bare KeyError."""
    app, est, pipe = native
    R = app.params["R"]
    rng = np.random.default_rng(0)
    inputs = app.make_inputs(est, rng)
    with pytest.raises(ValueError, match="parameter.*C"):
        pipe({R: 64}, inputs)
    with pytest.raises(ValueError, match="C.*R|R.*C"):
        pipe({}, inputs)


def test_invalid_thread_count_rejected(native):
    app, est, pipe = native
    rng = np.random.default_rng(0)
    inputs = app.make_inputs(est, rng)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="n_threads"):
            pipe(est, inputs, n_threads=bad)


def test_missing_input_image_named(native):
    app, est, pipe = native
    with pytest.raises(ValueError, match="missing input.*"):
        pipe(est, {})


def test_wrong_input_shape_rejected(native):
    app, est, pipe = native
    with pytest.raises(ValueError, match="shape"):
        pipe(est, {app.images[0]: np.zeros((4, 4), np.float32)})


def test_empty_domain_rejected(native):
    app, est, pipe = native
    R, C = app.params["R"], app.params["C"]
    # shape check fires first for negative sizes; a matching-but-empty
    # domain (R = -5 gives extents (-3, -3)) can never be satisfied
    with pytest.raises(ValueError):
        pipe({R: -5, C: -5}, {app.images[0]: np.zeros((0, 0), np.float32)})


def test_call_geometry_is_memoised_per_parameter_values(native,
                                                        monkeypatch):
    """Input extents and output shapes are evaluated once per distinct
    parameter values: repeat calls do no symbolic work, new values do,
    and the error texts do not depend on whether the memo was hit."""
    import repro.codegen.build as build
    app, est, shared = native
    pipe = build.load_native(shared.plan, "nat_memo", shared.build_info)
    image = app.images[0]
    calls = {"extents": 0, "domains": 0}
    to_affine = build.to_affine
    domain_type = type(pipe.plan.ir[pipe.plan.outputs[0]].domain)
    concretize = domain_type.concretize

    def counting_to_affine(*args, **kwargs):
        calls["extents"] += 1
        return to_affine(*args, **kwargs)

    def counting_concretize(self, *args, **kwargs):
        calls["domains"] += 1
        return concretize(self, *args, **kwargs)

    monkeypatch.setattr(build, "to_affine", counting_to_affine)
    monkeypatch.setattr(domain_type, "concretize", counting_concretize)
    rng = np.random.default_rng(0)
    frame = {image: rng.random((66, 66), dtype=np.float32)}
    first = pipe(est, frame)["harris"]
    assert calls == {"extents": 2, "domains": 1}
    for _ in range(3):
        np.testing.assert_array_equal(pipe(est, frame)["harris"], first)
    pipe.run_batch(est, [frame, frame])
    assert calls == {"extents": 2, "domains": 1}

    R, C = app.params["R"], app.params["C"]
    other = {R: 32, C: 48}
    small = {image: rng.random((34, 50), dtype=np.float32)}
    assert pipe(other, small)["harris"].shape == (34, 50)
    assert calls == {"extents": 4, "domains": 2}
    pipe(other, small)
    assert calls == {"extents": 4, "domains": 2}

    for _ in range(2):  # memo hit both times: same texts as ever
        with pytest.raises(ValueError) as excinfo:
            pipe(est, {image: np.zeros((4, 4), np.float32)})
        assert str(excinfo.value) == \
            f"input {image.name!r} has shape (4, 4), expected (66, 66)"
        with pytest.raises(ValueError) as excinfo:
            pipe(est, {})
        assert str(excinfo.value) == \
            f"missing input array for image {image.name!r}"


def test_call_geometry_memo_is_bounded(native):
    import repro.codegen.build as build
    app, est, shared = native
    pipe = build.load_native(shared.plan, "nat_memo_bound",
                             shared.build_info)
    R, C = app.params["R"], app.params["C"]
    image = app.images[0]
    for n in range(8, 8 + build.GEOMETRY_MEMO_SIZE + 3):
        pipe({R: n, C: 8}, {image: np.zeros((n + 2, 10), np.float32)})
        assert len(pipe._geometry_memo) <= build.GEOMETRY_MEMO_SIZE


def test_non_contiguous_input_handled(native):
    """Strided NumPy views are copied to contiguous storage."""
    app, est, pipe = native
    rng = np.random.default_rng(0)
    big = rng.random((2 * 66, 2 * 66), dtype=np.float32)
    view = big[::2, ::2]  # non-contiguous 66x66
    assert not view.flags["C_CONTIGUOUS"]
    out = pipe(est, {app.images[0]: view})["harris"]
    ref = pipe(est, {app.images[0]: np.ascontiguousarray(view)})["harris"]
    np.testing.assert_array_equal(out, ref)


def test_integer_input_coerced(native):
    app, est, pipe = native
    data = np.arange(66 * 66, dtype=np.int64).reshape(66, 66)
    out = pipe(est, {app.images[0]: data})["harris"]
    assert np.isfinite(out).all()


def test_compile_failure_reports_command(tmp_path):
    """A broken plan surfaces the compiler invocation and stderr."""
    from repro.codegen import build as build_mod
    app = build_pipeline()
    est = {app.params["R"]: 32, app.params["C"]: 32}
    plan = compile_pipeline(app.outputs, est, name="nat_broken").plan
    original = build_mod.generate_c
    try:
        build_mod.generate_c = lambda p, n, **kw: "this is not C"
        with pytest.raises(BuildError, match="compilation failed"):
            build_mod.build_native(plan, "nat_broken",
                                   cache_dir=tmp_path)
    finally:
        build_mod.generate_c = original


def test_find_compiler_returns_path():
    cc = find_compiler()
    assert cc and ("gcc" in cc or "cc" in cc or "clang" in cc)
