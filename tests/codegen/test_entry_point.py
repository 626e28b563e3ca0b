"""The generated C has one entry point, ``<func>_batch``.

* every group body is emitted exactly once per translation unit, and no
  single-frame function exists beside the batch entry;
* a library that lacks the entry symbol is refused at load;
* a frame's outputs do not depend on the frames batched with it — the
  full intermediates are ``calloc``ed for the first frame and re-zeroed
  before each later one;
* the native backend rejects foreign ``Parameter`` / ``Image`` keys with
  the interpreter's error, through both ``native(...)`` and
  ``native.run_batch(...)``.
"""

import re
import subprocess

import numpy as np
import pytest

from repro import CompileOptions, compile_pipeline
from repro.bench.harness import APP_BUILDERS, DEFAULT_TILES, make_instance
from repro.codegen.build import (
    BuildError, BuildInfo, CANONICAL_FUNC, build_native, compiler_available,
    find_compiler, load_native,
)
from repro.lang import (
    Case, Condition, Float, Function, Image, Int, Interval, Parameter,
    Variable,
)
from repro.runtime.executor import ExecutionError

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler found")

APPS = tuple(APP_BUILDERS)
#: apps whose batch entry is also driven with a 16-frame batch
LONG_BATCH_APPS = ("harris", "unsharp", "camera")


def _compiled(name: str, label: str):
    instance = make_instance(name, "tiny")
    compiled = compile_pipeline(
        instance.app.outputs, instance.values,
        CompileOptions.optimized(DEFAULT_TILES[name]), name=label)
    return instance, compiled


@pytest.mark.parametrize("name", APPS)
def test_each_group_body_emitted_once(name):
    _, compiled = _compiled(name, f"once_{name}")
    source = compiled.c_source()
    n_groups = len(compiled.plan.group_plans)
    for i in range(n_groups):
        assert source.count(f"/* group {i}: ") == 1, i
    assert f"/* group {n_groups}: " not in source
    assert f"void pipe_once_{name}_batch(int _nframes, " in source
    assert not re.search(r"void pipe_\w+\(int _nthreads", source)


@needs_cc
def test_library_without_entry_symbol_fails_at_load(tmp_path):
    _, compiled = _compiled("harris", "nosym")
    c_file = tmp_path / "nosym.c"
    c_file.write_text(f"void {CANONICAL_FUNC}(void) {{}}\n")
    so_path = tmp_path / "nosym.so"
    subprocess.run([find_compiler(), "-shared", "-fPIC", str(c_file),
                    "-o", str(so_path)], check=True)
    info = BuildInfo("nosym", so_path, True, 0.0)
    with pytest.raises(BuildError, match=f"{CANONICAL_FUNC}_batch"):
        load_native(compiled.plan, "nosym", info)


def _data_dependent_case():
    """(compiled, values, frames) for a pipeline whose full intermediate
    ``f`` is written only where the pixel exceeds 0.5 — which points a
    frame leaves at zero depends on its data, so a buffer not re-zeroed
    between frames leaks the previous frame's values.  In the 8 apps
    every point is written by every frame or by none, so there the
    re-zeroing cannot be observed."""
    R = Parameter(Int, "R")
    I = Image(Float, [R + 2], name="I")
    x = Variable("x")
    f = Function(varDom=([x], [Interval(0, R + 1, 1)]), typ=Float, name="f")
    f.defn = [Case(Condition(I(x), ">", 0.5), I(x) * 2.0)]
    g = Function(varDom=([x], [Interval(1, R, 1)]), typ=Float, name="g")
    g.defn = f(x - 1) + f(x + 1)
    values = {R: 64}
    compiled = compile_pipeline([g], values, CompileOptions.base(),
                                name="frames_data_dependent_case")
    assert "b_f = (float*)calloc(" in compiled.c_source()
    rng = np.random.default_rng(7)
    frames = [{I: rng.random(66, dtype=np.float32)} for _ in range(3)]
    return compiled, values, frames


@needs_cc
@pytest.mark.parametrize("name", APPS + ("data_dependent_case",))
def test_batched_frame_matches_batch_of_one(name):
    """``run_batch([f0, f1, f2])[k]`` is bit-identical to
    ``run_batch([fk])[0]`` for three distinct random frames; the
    ``LONG_BATCH_APPS`` also take a batch of sixteen."""
    if name == "data_dependent_case":
        compiled, values, frames = _data_dependent_case()
    else:
        instance, compiled = _compiled(name, f"frames_{name}")
        values = instance.values
        rng = np.random.default_rng(7)
        count = 16 if name in LONG_BATCH_APPS else 3
        frames = [instance.app.make_inputs(values, rng)
                  for _ in range(count)]
    native = build_native(compiled.plan, compiled.name)
    alone = [native.run_batch(values, [frame])[0] for frame in frames]
    for size in sorted({3, len(frames)}):
        batched = native.run_batch(values, frames[:size])
        for k in range(size):
            assert alone[k].keys() == batched[k].keys()
            for key in alone[k]:
                np.testing.assert_array_equal(
                    batched[k][key], alone[k][key],
                    err_msg=f"batch of {size}, frame {k}, {key}")
    native.release()


@pytest.fixture(scope="module")
def harris_tiny():
    instance = make_instance("harris", "tiny")
    compiled = compile_pipeline(
        instance.app.outputs, instance.values,
        CompileOptions.optimized(DEFAULT_TILES["harris"]),
        name="foreign_keys")
    return instance, compiled


def _foreign(instance, kind):
    """(param values, inputs) with one key replaced by a same-named
    object that is not the plan's."""
    values, inputs = dict(instance.values), dict(instance.inputs)
    if kind == "parameter":
        real = instance.app.params["R"]
        values[Parameter(Int, real.name)] = values.pop(real)
    else:
        (real, array), = inputs.items()
        rows, cols = Parameter(Int, "R"), Parameter(Int, "C")
        inputs = {Image(Float, [rows, cols], name=real.name): array}
    return values, inputs


@pytest.mark.parametrize("backend", ["interpreter", "native", "run_batch"])
@pytest.mark.parametrize("kind", ["parameter", "image"])
def test_foreign_keys_rejected_like_the_interpreter(harris_tiny, kind,
                                                    backend):
    instance, compiled = harris_tiny
    values, inputs = _foreign(instance, kind)
    with pytest.raises(ExecutionError) as want:
        compiled(values, inputs)
    noun = "parameter(s) in param_values" if kind == "parameter" \
        else "image(s) in inputs"
    assert f"unknown {noun}: " in str(want.value)
    if backend == "interpreter":
        return
    if not compiler_available():
        pytest.skip("no C compiler found")
    native = compiled.build()
    with pytest.raises(ExecutionError) as got:
        if backend == "native":
            native(values, inputs)
        else:
            native.run_batch(values, [instance.inputs, inputs])
    assert str(got.value) == str(want.value)
