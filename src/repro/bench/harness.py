"""Shared infrastructure for regenerating the paper's tables and figures.

Provides app instantiation at several scales (``paper`` = Table 2's image
sizes; ``small``/``tiny`` for quick runs), the paper's four PolyMage
variants (base / base+vec / opt / opt+vec, Figure 10's solid series),
timing with the paper's protocol (six runs, first discarded; see
:func:`repro.autotune.tuner.time_stats`), and markdown table formatting.

Substitution note: the Halide comparison points (H-tuned / H-matched /
OpenTuner) cannot be measured without Halide binaries.  Their *roles* are
covered by: ``base+vec`` (per-stage parallel + vectorized, no fusion — the
no-fusion schedules Halide's tuned schedules use on several benchmarks),
the OpenCV-style routine library (:mod:`repro.baselines.opencv_like`),
and stochastic wide-space search (:mod:`repro.autotune.random_search`)
for the OpenTuner axis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from repro import CompileOptions, compile_pipeline
from repro.apps import bilateral, camera, harris, interpolate, iunsharp
from repro.apps import laplacian, pyramid, unsharp
from repro.apps.base import AppSpec
# the paper's timing protocol lives with the autotuner (the core must not
# import repro.bench); re-exported for the table and figure harnesses
from repro.autotune.tuner import TimingStats, time_stats  # noqa: F401

#: builders at full structural scale (levels etc. as in the paper)
APP_BUILDERS: dict[str, Callable[[], AppSpec]] = {
    "unsharp": unsharp.build_pipeline,
    "bilateral": bilateral.build_pipeline,
    "harris": harris.build_pipeline,
    "camera": camera.build_pipeline,
    "pyramid_blend": pyramid.build_pipeline,
    "interpolate": interpolate.build_pipeline,
    "local_laplacian": laplacian.build_pipeline,
    "iunsharp": iunsharp.build_pipeline,
}

#: reduced-structure builders for tiny scales (pyramids need divisibility)
SMALL_BUILDERS: dict[str, Callable[[], AppSpec]] = {
    **APP_BUILDERS,
    "pyramid_blend": lambda: pyramid.build_pipeline(levels=3),
    "interpolate": lambda: interpolate.build_pipeline(levels=4),
    "local_laplacian": lambda: laplacian.build_pipeline(j_levels=4,
                                                        levels=3),
}

#: image sizes per scale: (rows, cols); paper sizes from Table 2
SIZES: dict[str, dict[str, tuple[int, int]]] = {
    "paper": {
        "unsharp": (2048, 2048),
        "bilateral": (2560, 1536),
        "harris": (6400, 6400),
        "camera": (2528, 1920),
        "pyramid_blend": (2048, 2048),
        "interpolate": (2560, 1536),
        "local_laplacian": (2560, 1536),
        "iunsharp": (2048, 2048),
    },
    "small": {name: (512, 512) for name in APP_BUILDERS},
    "tiny": {name: (128, 128) for name in APP_BUILDERS},
}

#: sensible default tile sizes per app (group-dimension order); the
#: autotuner refines these
DEFAULT_TILES: dict[str, tuple[int, ...]] = {
    "unsharp": (4, 32, 256),
    "bilateral": (32, 64, 16),
    "harris": (32, 256),
    "camera": (32, 256),
    "pyramid_blend": (8, 64, 256),
    "interpolate": (8, 64, 256),
    "local_laplacian": (64, 256),
    "iunsharp": (32, 256),
}

#: which table/figure variants use which paper image sizes.  ``iunsharp``
#: is not a paper benchmark (it anchors the precision-narrowing path),
#: so it carries no Table 2 reference numbers.
PAPER_TABLE2 = {
    "unsharp": dict(stages=4, lines=16, size="2048x2048x3",
                    t16_ms=3.95, opencv_ms=84.44,
                    speedup_opentuner=1.39, speedup_htuned=1.63),
    "bilateral": dict(stages=7, lines=43, size="2560x1536",
                      t16_ms=8.47, opencv_ms=None,
                      speedup_opentuner=1.09, speedup_htuned=0.89),
    "harris": dict(stages=11, lines=43, size="6400x6400",
                   t16_ms=18.69, opencv_ms=810.24,
                   speedup_opentuner=2.61, speedup_htuned=2.59),
    "camera": dict(stages=32, lines=86, size="2528x1920",
                   t16_ms=5.86, opencv_ms=None,
                   speedup_opentuner=10.05, speedup_htuned=1.04),
    "pyramid_blend": dict(stages=44, lines=71, size="2048x2048x3",
                          t16_ms=21.91, opencv_ms=197.28,
                          speedup_opentuner=27.61, speedup_htuned=4.61),
    "interpolate": dict(stages=49, lines=41, size="2560x1536x3",
                        t16_ms=18.18, opencv_ms=None,
                        speedup_opentuner=12.72, speedup_htuned=1.81),
    "local_laplacian": dict(stages=99, lines=107, size="2560x1536x3",
                            t16_ms=32.35, opencv_ms=None,
                            speedup_opentuner=9.41, speedup_htuned=1.54),
}


@dataclass
class AppInstance:
    """An application, concrete parameter values and inputs, ready to run."""

    name: str
    app: AppSpec
    values: dict
    inputs: dict
    scale: str

    @property
    def output_name(self) -> str:
        return self.app.outputs[-1].name


def spec_lines(name: str) -> int:
    """Lines of DSL specification — Table 2's 'Lines' analog.

    Counts the non-blank, non-comment lines of the app's
    ``build_pipeline`` up to (excluding) the input/reference scaffolding.
    """
    import inspect

    source = inspect.getsource(APP_BUILDERS[name])
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("def make_inputs"):
            break
        if not stripped or stripped.startswith("#") \
                or stripped.startswith('"""'):
            continue
        count += 1
    return count


def make_instance(name: str, scale: str = "small",
                  seed: int = 0) -> AppInstance:
    """Build an application with inputs at the requested scale."""
    builder = (APP_BUILDERS if scale == "paper" else SMALL_BUILDERS)[name]
    app = builder()
    rows, cols = SIZES[scale][name]
    values = {app.params["R"]: rows, app.params["C"]: cols}
    rng = np.random.default_rng(seed)
    inputs = app.make_inputs(values, rng)
    return AppInstance(name, app, values, inputs, scale)


#: Figure 10's PolyMage variant axis
VARIANTS = ("base", "base+vec", "opt", "opt+vec")


def variant_options(name: str, variant: str) -> tuple[CompileOptions, bool]:
    """(compile options, vectorize-flag) for one Figure 10 variant.

    The non-vectorized variants also turn off the fast path's
    ``#pragma omp simd`` so that "no vectorization" means what it says
    at both the compiler-flag and the generated-pragma level.
    """
    tiles = DEFAULT_TILES[name]
    vectorize = variant.endswith("+vec")
    if variant.startswith("base"):
        options = CompileOptions.base()
    else:
        options = CompileOptions.optimized(tiles)
    if not vectorize:
        options = replace(options, simd=False)
    return options, vectorize


def build_variant(instance: AppInstance, variant: str,
                  cache_dir=None, instrument: bool = False):
    """Compile one variant with the native backend; returns a callable
    ``run(n_threads) -> outputs``.  With ``instrument=True`` the build
    carries per-group timers, readable as ``run.native.last_stats``
    after a call."""
    from repro.codegen.build import build_native
    options, vectorize = variant_options(instance.name, variant)
    compiled = compile_pipeline(instance.app.outputs, instance.values,
                                options,
                                name=f"{instance.name}_{variant}")
    native = build_native(compiled.plan,
                          f"{instance.name}_{variant}".replace("+", "_"),
                          vectorize=vectorize, instrument=instrument,
                          cache_dir=cache_dir)

    def run(n_threads: int = 1):
        return native(instance.values, instance.inputs,
                      n_threads=n_threads)

    run.plan = compiled.plan  # type: ignore[attr-defined]
    run.build_info = native.build_info  # type: ignore[attr-defined]
    run.native = native  # type: ignore[attr-defined]
    return run


def cache_summary(cache_dir=None) -> str:
    """One-line description of the compile cache used by the harnesses."""
    from repro.codegen.build import get_cache
    cache = get_cache(cache_dir)
    stats = cache.stats()
    n = len(cache.entries())
    return (f"compile cache: {cache.root} — {n} artifacts, "
            f"{cache.size_bytes() / 1e6:.1f} MB, "
            f"{stats.hits} hits / {stats.misses} misses this process")


def time_ms(fn: Callable[[], object], runs: int = 6) -> float:
    """Mean-only view of :func:`time_stats`, kept for compatibility."""
    return time_stats(fn, runs).mean_ms


def format_table(headers: list[str], rows: list[list]) -> str:
    """Markdown-style table with aligned columns."""
    def fmt(v):
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.2f}"
        return str(v)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = ["| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths))
             + " |"]
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in cells:
        lines.append("| " + " | ".join(c.ljust(w)
                                       for c, w in zip(row, widths)) + " |")
    return "\n".join(lines)
