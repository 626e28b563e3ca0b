"""Stochastic configuration search — the OpenTuner stand-in.

The paper compares its model-restricted sweep against Halide schedules
found by OpenTuner's stochastic search over a much larger space.  This
module reproduces that axis: configurations are sampled at random from a
*wide* space (arbitrary power-of-two tiles from 4 to 1024, continuous
thresholds, inlining and grouping toggles) under a fixed evaluation
budget, and the best-so-far trajectory is recorded.  With equal budgets
the restricted model-driven sweep reliably finds better points — the
paper's Section 5 argument that "only a small subset of the space
matters in practice".

The whole budget is sampled up-front (so a seed fully determines the
candidate list), then runs through the model-driven tuner's compile →
verify → load → time loop (:func:`repro.autotune.tuner._sweep`):
``n_workers > 1`` compiles on that many threads, and timing stays on the
calling thread either way.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.autotune.tuner import _sweep
from repro.compiler.options import CompileOptions


@dataclass(frozen=True)
class RandomConfig:
    """One sampled point of the wide space."""

    tile_sizes: tuple[int, ...]
    overlap_threshold: float
    inline: bool
    group: bool
    specialize: bool = True

    def options(self) -> CompileOptions:
        return CompileOptions(tile_sizes=self.tile_sizes,
                              overlap_threshold=self.overlap_threshold,
                              inline=self.inline, group=self.group,
                              tile=self.group,
                              specialize=self.specialize,
                              simd=self.specialize)

    def __str__(self) -> str:
        tiles = "x".join(map(str, self.tile_sizes))
        return (f"tiles={tiles} othresh={self.overlap_threshold:.2f} "
                f"inline={self.inline} group={self.group} "
                f"specialize={self.specialize}")

    def to_dict(self) -> dict:
        return {"tile_sizes": list(self.tile_sizes),
                "overlap_threshold": self.overlap_threshold,
                "inline": self.inline, "group": self.group,
                "specialize": self.specialize}


@dataclass
class SearchResult:
    """One evaluated random configuration and its time."""
    config: RandomConfig
    time_ms: float
    compile_s: float = 0.0
    cache_hit: bool | None = None


@dataclass
class SearchReport:
    """All evaluations of one random-search run."""
    results: list[SearchResult] = field(default_factory=list)
    skipped: list[tuple[RandomConfig, str]] = field(default_factory=list)
    elapsed_s: float = 0.0
    n_workers: int = 1

    def best(self) -> SearchResult:
        if not self.results:
            raise ValueError("no configuration evaluated successfully")
        return min(self.results, key=lambda r: r.time_ms)

    def trajectory(self) -> list[float]:
        """Best-so-far time after each evaluation."""
        out, best = [], float("inf")
        for r in self.results:
            best = min(best, r.time_ms)
            out.append(best)
        return out

    def to_dict(self) -> dict:
        return {"n_workers": self.n_workers,
                "elapsed_s": self.elapsed_s,
                "results": [{**r.config.to_dict(), "time_ms": r.time_ms,
                             "compile_s": r.compile_s,
                             "cache_hit": r.cache_hit}
                            for r in self.results],
                "skipped": [{**c.to_dict(), "reason": reason}
                            for c, reason in self.skipped]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path


def sample_config(rng: np.random.Generator, n_dims: int) -> RandomConfig:
    """Draw one configuration from the wide space."""
    tiles = tuple(int(2 ** rng.integers(2, 11)) for _ in range(n_dims))
    threshold = float(rng.uniform(0.05, 1.0))
    inline = bool(rng.integers(0, 2))
    group = bool(rng.integers(0, 4) > 0)  # mostly grouped, sometimes not
    # mostly specialized — the off branch keeps the search honest about
    # whether the fast path actually pays on this machine
    specialize = bool(rng.integers(0, 4) > 0)
    return RandomConfig(tiles, threshold, inline, group, specialize)


def random_search(outputs, estimates: Mapping, param_values: Mapping,
                  inputs: Mapping, *,
                  budget: int = 30,
                  n_dims: int = 2,
                  backend: str = "native",
                  n_threads: int = 4,
                  seed: int = 0,
                  name: str = "rand",
                  n_workers: int = 1,
                  cache_dir: str | Path | None = None) -> SearchReport:
    """Evaluate ``budget`` random configurations; return all timings.

    Each time is the paper's protocol at ``n_threads``: one warm-up run
    discarded, one timed run kept.  Configurations that fail to compile,
    verify or run are skipped and recorded with their failure reason in
    ``report.skipped``.
    """
    rng = np.random.default_rng(seed)
    candidates = [sample_config(rng, n_dims) for _ in range(budget)]
    n_workers = max(1, n_workers)
    report = SearchReport(n_workers=n_workers)
    start = time.perf_counter()
    for trial in _sweep(outputs, estimates, param_values, inputs,
                        enumerate(candidates), backend=backend,
                        n_workers=n_workers, cache_dir=cache_dir,
                        name=name, thread_counts=(n_threads,), runs=2):
        if trial.error is not None:
            report.skipped.append((trial.config, trial.error))
        else:
            report.results.append(SearchResult(
                trial.config, trial.times[0].min_ms,
                compile_s=trial.compile_s, cache_hit=trial.cache_hit))
    report.elapsed_s = time.perf_counter() - start
    return report
