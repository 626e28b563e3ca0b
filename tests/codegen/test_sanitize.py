"""Hostile-pixel soundness under AddressSanitizer.

Bit-identity cannot see an out-of-bounds read that lands on valid
memory.  bilateral's grid gathers and histogram scatters index by pixel
*values* and run without clamps or bounds tests once their ranges are
proven (``repro.codegen.opt``), so this builds bilateral with
``-fsanitize=address`` and feeds it NaN, ±inf, negative and huge pixels
mixed with valid ones: any escape from a grid is an ASan report.

The instrumented library is loaded into a fresh interpreter with the
ASan runtime preloaded (a sanitized ``.so`` cannot be dlopen'd into an
uninstrumented process otherwise); this process compiles it first, so
the child only hits the compile cache and never runs gcc under ASan.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CompileOptions, compile_pipeline
from repro.apps import bilateral
from repro.codegen.build import compile_artifact, find_compiler

SIZE = 64
TILES = (32, 64, 16)
FLAGS = ("-fsanitize=address", "-fno-omit-frame-pointer")
SRC = Path(__file__).resolve().parents[2] / "src"


def _libasan() -> str | None:
    cc = find_compiler()
    if cc is None:
        return None
    out = subprocess.run([cc, "-print-file-name=libasan.so"],
                         capture_output=True, text=True).stdout.strip()
    return out if os.path.isabs(out) and os.path.exists(out) else None


LIBASAN = _libasan()

pytestmark = pytest.mark.skipif(LIBASAN is None, reason="no libasan")

CHILD = r"""
import sys
import numpy as np
from repro import CompileOptions, compile_pipeline
from repro.apps import bilateral
from repro.codegen.build import build_native

cache, size = sys.argv[1], int(sys.argv[2])
app = bilateral.build_pipeline()
values = {app.params["R"]: size, app.params["C"]: size}
compiled = compile_pipeline(app.outputs, values,
                            CompileOptions.optimized(%(tiles)r),
                            name="asan_bilateral")
native = build_native(compiled.plan, "asan_bilateral", cache_dir=cache,
                      extra_flags=%(flags)r)
assert native.build_info.cache_hit, "the child must not run the compiler"
image = app.images[0]
rng = np.random.default_rng(0)
hostile = np.array([np.nan, np.inf, -np.inf, -5.0, 1e30], np.float32)
frames = [np.full((size, size), v, np.float32) for v in hostile]
for share in (0.1, 0.5, 0.9):
    frame = rng.random((size, size), dtype=np.float32)
    mask = rng.random((size, size)) < share
    frame[mask] = rng.choice(hostile, size=int(mask.sum()))
    frames.append(frame)
for frame in frames:
    for threads in (1, 2):
        out = native(values, {image: frame}, n_threads=threads)
        assert out["bilateral"].shape == (size, size)
native.release()
print("clean", len(frames))
"""


def test_bilateral_survives_hostile_pixels_under_asan(tmp_path):
    app = bilateral.build_pipeline()
    values = {app.params["R"]: SIZE, app.params["C"]: SIZE}
    compiled = compile_pipeline(app.outputs, values,
                                CompileOptions.optimized(TILES),
                                name="asan_bilateral")
    # compile only: dlopen'ing it here, without the runtime preloaded,
    # would make ASan abort this process
    compile_artifact(compiled.plan, cache_dir=tmp_path, extra_flags=FLAGS)
    env = dict(os.environ, LD_PRELOAD=LIBASAN, PYTHONPATH=str(SRC),
               ASAN_OPTIONS="detect_leaks=0:abort_on_error=0")
    result = subprocess.run(
        [sys.executable, "-c",
         CHILD % {"tiles": TILES, "flags": FLAGS}, str(tmp_path),
         str(SIZE)],
        capture_output=True, text=True, env=env, timeout=300)
    assert "AddressSanitizer" not in result.stderr, result.stderr[-4000:]
    assert result.returncode == 0, result.stderr[-4000:]
    assert result.stdout.split() == ["clean", "8"], result.stdout
