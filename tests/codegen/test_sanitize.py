"""Hostile-pixel soundness under AddressSanitizer.

Bit-identity cannot see an out-of-bounds read that lands on valid
memory.  bilateral's grid gathers and histogram scatters index by pixel
*values* and run without clamps or bounds tests once their ranges are
proven (``repro.codegen.opt``), so this builds bilateral with
``-fsanitize=address`` and feeds it NaN, ±inf, negative and huge pixels
mixed with valid ones: any escape from a grid is an ASan report.

A second leg checks the arena lifetime rule under the same runtime:
two threads call one artifact at once while a third calls ``release()``
in a loop.  Each call checks out its own arena set and release frees
only idle sets, so a set freed under a running call would be a
use-after-free report here.

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


CHILD_THREADS = r"""
import sys
import threading
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
assert not native.needs_call_lock
image = app.images[0]
frames = [rng.random((size, size), dtype=np.float32)
          for rng in map(np.random.default_rng, (1, 2))]
want = [native(values, {image: f})["bilateral"] for f in frames]
native.release()
finished, bad, releases = [], [], [0]

def caller(k):
    try:
        for r in range(24):
            out = native(values, {image: frames[k]}, n_threads=1 + (r + k) %% 2)
            if not np.array_equal(out["bilateral"], want[k]):
                bad.append((k, r))
    finally:
        finished.append(k)

def releaser():
    while len(finished) < 2:
        native.release()
        releases[0] += 1

threads = [threading.Thread(target=caller, args=(k,)) for k in (0, 1)]
threads.append(threading.Thread(target=releaser))
for t in threads:
    t.start()
for t in threads:
    t.join()
assert not bad, bad
assert releases[0] > 0
native.release()
print("clean", len(finished))
"""


def _compile_sanitized(cache) -> None:
    app = bilateral.build_pipeline()
    values = {app.params["R"]: SIZE, app.params["C"]: SIZE}
    compiled = compile_pipeline(app.outputs, values,
                                CompileOptions.optimized(TILES),
                                name="asan_bilateral")
    # compile only: dlopen'ing it here, without the runtime preloaded,
    # would make ASan abort this process
    compile_artifact(compiled.plan, cache_dir=cache, extra_flags=FLAGS)


def _run_child(script: str, cache) -> str:
    env = dict(os.environ, LD_PRELOAD=LIBASAN, PYTHONPATH=str(SRC),
               ASAN_OPTIONS="detect_leaks=0:abort_on_error=0")
    result = subprocess.run(
        [sys.executable, "-c",
         script % {"tiles": TILES, "flags": FLAGS}, str(cache),
         str(SIZE)],
        capture_output=True, text=True, env=env, timeout=300)
    assert "AddressSanitizer" not in result.stderr, result.stderr[-4000:]
    assert result.returncode == 0, result.stderr[-4000:]
    return result.stdout


def test_bilateral_survives_hostile_pixels_under_asan(tmp_path):
    _compile_sanitized(tmp_path)
    out = _run_child(CHILD, tmp_path)
    assert out.split() == ["clean", "8"], out


def test_release_during_concurrent_calls_under_asan(tmp_path):
    _compile_sanitized(tmp_path)
    out = _run_child(CHILD_THREADS, tmp_path)
    assert out.split() == ["clean", "2"], out
