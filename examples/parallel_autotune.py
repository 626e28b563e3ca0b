"""Parallel autotuning with the concurrency-safe compile cache.

Sweeps a model-restricted configuration space for Harris corner
detection, compiling on a thread pool (each distinct C source is built
once; timing stays on the calling thread), then repeats the sweep to show every configuration hitting
the persistent compile cache, and writes the structured TuningReport to
JSON::

    python examples/parallel_autotune.py [size] [workers] [report.json]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.apps.harris import build_pipeline
from repro.autotune import TuneConfig, autotune
from repro.codegen.build import compiler_available, get_cache


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 256
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    json_path = sys.argv[3] if len(sys.argv) > 3 else None

    app = build_pipeline()
    R, C = app.params["R"], app.params["C"]
    values = {R: size, C: size}
    inputs = app.make_inputs(values, np.random.default_rng(0))

    backend = "native" if compiler_available() else "interp"
    space = [TuneConfig((tx, ty), th)
             for tx in (16, 32, 128) for ty in (64, 256, 512)
             for th in (0.2, 0.4, 0.5)]
    cache_dir = Path(tempfile.mkdtemp(prefix="repro_tune_cache_"))

    print(f"sweep 1: {len(space)} configurations, {workers} compile "
          f"workers, backend={backend} ...")
    report = autotune(app.outputs, values, values, inputs, space=space,
                      n_threads=2, repeats=1, n_workers=workers,
                      backend=backend, cache_dir=cache_dir,
                      name="par_tune")
    best = report.best()
    print(f"  swept in {report.elapsed_s:.1f}s "
          f"({report.cache_misses} compiles, {report.cache_hits} cache "
          f"hits, {len(report.skipped)} skipped)")
    print(f"  best: {best.config} -> {best.time_parallel_ms:.2f} ms")

    print("sweep 2: same space, warm cache ...")
    report2 = autotune(app.outputs, values, values, inputs, space=space,
                       n_threads=2, repeats=1, n_workers=workers,
                       backend=backend, cache_dir=cache_dir,
                       name="par_tune")
    print(f"  swept in {report2.elapsed_s:.1f}s — all cache hits: "
          f"{report2.all_cache_hits}")

    cache = get_cache(cache_dir)
    print(f"cache: {len(cache.entries())} artifacts, "
          f"{cache.size_bytes() / 1e6:.1f} MB at {cache.root}")

    if json_path:
        report2.save(json_path)
        print(f"wrote {json_path}")
    else:
        print("\nTuningReport JSON (truncated):")
        print(report2.to_json()[:600], "...")


if __name__ == "__main__":
    main()
