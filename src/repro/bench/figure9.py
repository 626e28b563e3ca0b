"""Regenerate Figure 9: autotuning scatter (1-thread vs N-thread time).

Usage::

    python -m repro.bench.figure9 [--scale small|paper] [--apps ...]
                                  [--threads N] [--grid coarse|paper]
                                  [--workers N] [--json PATH]

For the three applications of the paper's Figure 9 (Pyramid Blending,
Camera Pipeline, Multiscale Interpolation) the model-restricted space is
swept — tile sizes per tiled dimension and the three overlap thresholds —
and each configuration's single-thread / N-thread times are printed (the
figure's scatter points), plus the best configuration and total sweep
time (the paper reports under 30 minutes per benchmark).

``--workers N`` compiles on N threads (timing stays on the calling
thread, one configuration at a time); ``--json PATH`` writes every app's serialized
:class:`~repro.autotune.tuner.TuningReport` to one JSON file, including
per-configuration compile times and compile-cache hits.

``--profile`` builds every configuration with in-library per-group
timers and folds the per-group seconds / tile counts into the report;
``--trace out.json`` records compiler-phase spans for every
configuration (compile threads included) and writes a Chrome
``chrome://tracing`` / Perfetto-loadable trace file.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from repro.autotune.tuner import TuneConfig, autotune
from repro.bench.harness import cache_summary, format_table, make_instance
from repro.observe import tracing

FIGURE9_APPS = ("pyramid_blend", "camera", "interpolate")

#: tuned dimensions per app (group-dim order used by its main group)
APP_NDIMS = {"pyramid_blend": 3, "camera": 2, "interpolate": 3}


def space_for(name: str, grid: str) -> list[TuneConfig]:
    """The tuning space for one app: the paper's 147-point grid, a coarse
    subset, or a single-point smoke grid (CI)."""
    if grid == "paper":
        tiles = (8, 16, 32, 64, 128, 256, 512)
        thresholds = (0.2, 0.4, 0.5)
    elif grid == "smoke":
        tiles = (64,)
        thresholds = (0.4,)
    else:
        tiles = (16, 64, 256)
        thresholds = (0.2, 0.5)
    ndims = APP_NDIMS[name]
    out = []
    spatial = itertools.product(tiles, repeat=min(2, ndims))
    for t in spatial:
        full = ((4,) + t) if ndims == 3 else t
        for th in thresholds:
            out.append(TuneConfig(full, th))
    return out


def run_figure9(scale: str = "small", apps=None, threads: int = 4,
                grid: str = "coarse", workers: int = 1,
                json_path: str | Path | None = None,
                trace_path: str | Path | None = None,
                profile: bool = False,
                out=sys.stdout) -> dict:
    """Sweep and print the Figure 9 scatter data per app."""
    apps = apps or FIGURE9_APPS
    results = {}
    with tracing() as tracer:
        tracer.enabled = trace_path is not None
        for name in apps:
            with tracer.span("figure9", cat="bench", app=name,
                             scale=scale, grid=grid):
                instance = make_instance(name, scale)
                report = autotune(
                    instance.app.outputs, instance.values, instance.values,
                    instance.inputs, space=space_for(name, grid),
                    n_threads=threads, n_workers=workers,
                    name=f"fig9_{name}", profile=profile)
            rows = [[str(r.config), r.time_single_ms, r.time_parallel_ms,
                     r.time_parallel_std_ms, r.n_groups, r.compile_s,
                     "hit" if r.cache_hit else "miss"]
                    for r in report.results]
            print(f"\n## Figure 9 analog: {name} (scale={scale}, "
                  f"{len(report.results)} configs, "
                  f"{len(report.skipped)} skipped, workers={workers}, "
                  f"sweep took {report.elapsed_s:.1f}s)\n", file=out)
            print(format_table(
                ["config", "t(1) ms", f"t({threads}) ms", "std ms",
                 "groups", "compile s", "cache"], rows),
                file=out)
            best = report.best()
            print(f"\nbest: {best.config} -> "
                  f"{best.time_parallel_ms:.2f} ms "
                  f"({threads} threads)", file=out)
            if profile and best.profile:
                seconds = best.profile.get("group_seconds", [])
                tiles = best.profile.get("group_tiles", [])
                for i, (s, t) in enumerate(zip(seconds, tiles)):
                    print(f"  best profile: group {i}: {s * 1e3:.3f} ms"
                          + (f", {t} tiles" if t else ""), file=out)
            for skip in report.skipped:
                print(f"skipped: {skip.config} ({skip.reason})", file=out)
            results[name] = report
            print(f"  [{name}] done", file=sys.stderr)
        print(f"\n{cache_summary()}", file=out)
        if trace_path:
            tracer.write_chrome(trace_path)
            print(f"wrote trace {trace_path}", file=sys.stderr)
    if json_path:
        payload = {name: report.to_dict()
                   for name, report in results.items()}
        Path(json_path).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {json_path}", file=sys.stderr)
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=["paper", "small", "tiny"])
    parser.add_argument("--apps", default=None)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--grid", default="coarse",
                        choices=["coarse", "paper", "smoke"])
    parser.add_argument("--workers", type=int, default=1,
                        help="compile threads for the sweep (1: serial)")
    parser.add_argument("--json", default=None,
                        help="write all TuningReports to this JSON file")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome trace_event JSON to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="build with per-group native timers and "
                             "report per-group times")
    args = parser.parse_args()
    apps = args.apps.split(",") if args.apps else None
    run_figure9(args.scale, apps, args.threads, args.grid,
                workers=args.workers, json_path=args.json,
                trace_path=args.trace, profile=args.profile)


if __name__ == "__main__":
    main()
