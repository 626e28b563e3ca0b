"""Model-driven autotuning (paper Section 3.8, Figure 9).

The optimizer reduces the schedule space to tile sizes and the overlap
threshold; the autotuner exhaustively times that small space — seven tile
sizes per tiled dimension and three thresholds, i.e. 147 configurations
for the two-tilable-dimension pipelines of the paper — and reports every
configuration's single-thread and multi-thread time (the data behind
Figure 9's scatter plots) plus the best configuration.

With ``n_workers > 1`` the compile half of the sweep (middle end + gcc)
fans out over a process pool (:mod:`repro.autotune.farm`) while every
timing run stays serialized on the parent, so measurements are never
contended by each other.  Each configuration's compile time and
compile-cache hit/miss are recorded alongside its run times in the
:class:`TuningReport`, which serializes to JSON for the bench harnesses.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.autotune.farm import (
    CompileRecord, CompileTask, rebind_values, run_compile_farm,
)
from repro.compiler.options import (
    OVERLAP_THRESHOLD_CHOICES, TILE_SIZE_CHOICES, CompileOptions,
)


@dataclass(frozen=True)
class TuneConfig:
    """One point of the autotuning space."""

    tile_sizes: tuple[int, ...]
    overlap_threshold: float
    specialize: bool = True
    narrow: bool = False

    def options(self) -> CompileOptions:
        base = CompileOptions.optimized(self.tile_sizes,
                                        self.overlap_threshold)
        if not self.specialize:
            base = base.with_specialize(False, simd=False)
        if self.narrow:
            base = base.with_narrow(True)
        return base

    def __str__(self) -> str:
        tiles = "x".join(map(str, self.tile_sizes))
        out = f"tiles={tiles} othresh={self.overlap_threshold}"
        if not self.specialize:
            out += " specialize=False"
        if self.narrow:
            out += " narrow"
        return out

    def to_dict(self) -> dict:
        return {"tile_sizes": list(self.tile_sizes),
                "overlap_threshold": self.overlap_threshold,
                "specialize": self.specialize,
                "narrow": self.narrow}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TuneConfig":
        return cls(tuple(data["tile_sizes"]), data["overlap_threshold"],
                   bool(data.get("specialize", True)),
                   bool(data.get("narrow", False)))


@dataclass
class TuneResult:
    """Measured times for one configuration (Figure 9's data points).

    Times are the best (minimum) of the repeats, as the paper selects;
    the standard deviations expose run-to-run noise.  ``profile`` is the
    per-group native stats summary (group seconds and tile counts) when
    the sweep ran with ``profile=True``.
    """

    config: TuneConfig
    time_single_ms: float
    time_parallel_ms: float
    n_groups: int
    compile_s: float = 0.0
    cache_hit: bool | None = None
    time_single_std_ms: float = 0.0
    time_parallel_std_ms: float = 0.0
    profile: dict | None = None

    def to_dict(self) -> dict:
        return {**self.config.to_dict(),
                "time_single_ms": self.time_single_ms,
                "time_parallel_ms": self.time_parallel_ms,
                "time_single_std_ms": self.time_single_std_ms,
                "time_parallel_std_ms": self.time_parallel_std_ms,
                "n_groups": self.n_groups,
                "compile_s": self.compile_s,
                "cache_hit": self.cache_hit,
                "profile": self.profile}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TuneResult":
        return cls(TuneConfig.from_dict(data),
                   data["time_single_ms"], data["time_parallel_ms"],
                   data["n_groups"], data.get("compile_s", 0.0),
                   data.get("cache_hit"),
                   data.get("time_single_std_ms", 0.0),
                   data.get("time_parallel_std_ms", 0.0),
                   data.get("profile"))


@dataclass
class SkippedConfig:
    """A configuration that failed to compile, with the reason recorded."""

    config: TuneConfig
    reason: str

    def to_dict(self) -> dict:
        return {**self.config.to_dict(), "reason": self.reason}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SkippedConfig":
        return cls(TuneConfig.from_dict(data), data["reason"])


@dataclass
class TuningReport:
    """All measurements from one autotuning run."""

    results: list[TuneResult] = field(default_factory=list)
    skipped: list[SkippedConfig] = field(default_factory=list)
    elapsed_s: float = 0.0
    backend: str = "native"
    n_workers: int = 1
    n_threads: int = 0

    def best(self, parallel: bool = True) -> TuneResult:
        """The fastest configuration (by parallel or single-thread time)."""
        if not self.results:
            raise ValueError("no configurations were measured")
        key = ((lambda r: r.time_parallel_ms) if parallel
               else (lambda r: r.time_single_ms))
        return min(self.results, key=key)

    def scatter(self) -> list[tuple[float, float]]:
        """(1-thread ms, n-thread ms) pairs — the Figure 9 axes."""
        return [(r.time_single_ms, r.time_parallel_ms)
                for r in self.results]

    # -- cache observability ----------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cache_hit)

    @property
    def cache_misses(self) -> int:
        return sum(1 for r in self.results if r.cache_hit is False)

    @property
    def all_cache_hits(self) -> bool:
        return bool(self.results) and all(r.cache_hit for r in self.results)

    @property
    def total_compile_s(self) -> float:
        return sum(r.compile_s for r in self.results)

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> dict:
        best = None
        if self.results:
            best = self.best(parallel=True).to_dict()
        return {"backend": self.backend,
                "n_workers": self.n_workers,
                "n_threads": self.n_threads,
                "elapsed_s": self.elapsed_s,
                "cache": {"hits": self.cache_hits,
                          "misses": self.cache_misses},
                "total_compile_s": self.total_compile_s,
                "best": best,
                "results": [r.to_dict() for r in self.results],
                "skipped": [s.to_dict() for s in self.skipped]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def from_dict(cls, data: Mapping) -> "TuningReport":
        return cls(
            results=[TuneResult.from_dict(r) for r in data.get("results", [])],
            skipped=[SkippedConfig.from_dict(s)
                     for s in data.get("skipped", [])],
            elapsed_s=data.get("elapsed_s", 0.0),
            backend=data.get("backend", "native"),
            n_workers=data.get("n_workers", 1),
            n_threads=data.get("n_threads", 0))

    @classmethod
    def from_json(cls, text: str) -> "TuningReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "TuningReport":
        return cls.from_json(Path(path).read_text())


def default_space(n_dims: int,
                  tile_choices: Sequence[int] = TILE_SIZE_CHOICES,
                  thresholds: Sequence[float] = OVERLAP_THRESHOLD_CHOICES,
                  specialize_choices: Sequence[bool] = (True,)
                  ) -> list[TuneConfig]:
    """The paper's restricted space: |tile_choices|^n_dims * |thresholds|.

    ``specialize_choices=(True, False)`` doubles the space with the
    fast-path knob, for machines where specialization might not pay.
    """
    out = []
    for tiles in itertools.product(tile_choices, repeat=n_dims):
        for th in thresholds:
            for sp in specialize_choices:
                out.append(TuneConfig(tiles, th, sp))
    return out


def _time_call(fn: Callable[[], object],
               repeats: int) -> tuple[float, float]:
    """(best ms, std ms) over ``repeats`` runs after one warm-up."""
    import statistics
    fn()  # warm up (the paper discards the first run)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    std = statistics.pstdev(times) if len(times) > 1 else 0.0
    return min(times), std


def _measure(record: CompileRecord, config: TuneConfig, param_values,
             inputs, backend: str, n_threads: int, repeats: int,
             name: str) -> TuneResult:
    """Time one compiled configuration (always on the calling process)."""
    plan = record.plan
    params, images = rebind_values(plan, param_values, inputs)
    pipe = None
    if backend == "native":
        from repro.codegen.build import load_native
        pipe = load_native(plan, f"{name}_{record.index}", record.info)

        def run(n: int):
            return pipe(params, images, n_threads=n)
    else:
        from repro.runtime.executor import execute_plan

        def run(n: int):
            return execute_plan(plan, params, images, n_threads=n)

    single, single_std = _time_call(lambda: run(1), repeats)
    parallel, parallel_std = _time_call(lambda: run(n_threads), repeats)
    # per-group profile of the last (parallel) run, for instrumented builds
    profile = None
    if pipe is not None and pipe.last_stats is not None:
        profile = pipe.last_stats.as_dict()
    return TuneResult(config, single, parallel, record.n_groups,
                      compile_s=record.compile_s,
                      cache_hit=record.cache_hit,
                      time_single_std_ms=single_std,
                      time_parallel_std_ms=parallel_std,
                      profile=profile)


def autotune(outputs, estimates: Mapping, param_values: Mapping,
             inputs: Mapping, *,
             space: Iterable[TuneConfig] | None = None,
             n_dims: int = 2,
             backend: str = "native",
             n_threads: int = 4,
             repeats: int = 2,
             name: str = "tuned",
             n_workers: int = 1,
             cache_dir: str | Path | None = None,
             profile: bool = False,
             hints=None,
             store: str | None = None,
             store_root: str | Path | None = None) -> TuningReport:
    """Time every configuration of the (restricted) space.

    ``backend`` is ``"native"`` (generated C, as the paper measures) or
    ``"interp"`` (NumPy interpreter, for environments without a C
    compiler).  Configurations whose compilation fails are skipped and
    recorded, with the failure reason, in ``report.skipped``.

    ``n_workers > 1`` compiles configurations concurrently in worker
    processes; timing always runs one-at-a-time on the calling process,
    and the returned report is ordered and selected identically to a
    serial sweep.

    ``profile=True`` (native backend) builds every configuration with
    in-library per-group timers and attaches the per-group seconds /
    tile counts of the measured run to each :class:`TuneResult` — note
    the timers add a small overhead to the reported times.

    Every successfully compiled configuration goes through the static
    plan verifier (:mod:`repro.verify`) before it is timed;
    configurations with error-severity findings are never run — they
    join ``report.skipped`` with the diagnostic codes as the reason.
    Configurations with ``narrow=True`` additionally get the RV5xx
    range-audit checks, so an unsound narrowing decision is caught
    before it can produce (fast) wrong answers.

    ``hints`` is an optional :class:`~repro.schedule.ScheduleHints`
    applied to *every* configuration of the sweep; hinted plans still go
    through the same verifier gate (including the RV6xx hint audit).

    ``store="ro"|"rw"`` consults the persistent schedule store
    (:mod:`repro.schedule`).  When the store already holds a tuned
    winner for this pipeline on this machine (under the same hints),
    only that winning configuration is re-measured — every other
    configuration of the space is reported as
    ``SkippedConfig(config, "store_hit")``, so the sweep accounting
    stays complete (``len(results) + len(skipped)`` still covers the
    whole space).  With ``"rw"`` the sweep's winner (measurements and
    artifact coordinates included) is published back to the store.
    ``store_root`` overrides the store directory (default:
    ``<cache root>/schedules``).
    """
    if store not in (None, "ro", "rw"):
        raise ValueError(f"store must be None, 'ro' or 'rw', got {store!r}")
    if hints is not None and hints.is_empty():
        hints = None
    space = list(space) if space is not None else default_space(n_dims)
    n_workers = max(1, n_workers)
    report = TuningReport(backend=backend, n_workers=n_workers,
                          n_threads=n_threads)
    start = time.perf_counter()
    estimates = dict(estimates)
    measured: list[tuple[int, TuneResult]] = []
    skipped: list[tuple[int, SkippedConfig]] = []
    hints_doc = hints.to_dict() if hints is not None else None

    sched_store = digest = fingerprint = None
    stored_entry = None
    if store is not None:
        from repro.codegen.build import _schedule_store
        from repro.schedule.store import machine_fingerprint, pipeline_digest
        sched_store = _schedule_store(cache_dir, store_root)
        digest = pipeline_digest(list(outputs), estimates)
        fingerprint = machine_fingerprint()
        stored_entry = sched_store.lookup(digest, fingerprint)
        # only a *tuned* entry under the same hints short-circuits a sweep
        if stored_entry is not None and (
                stored_entry.tune_result is None
                or (stored_entry.hints or None) != hints_doc):
            stored_entry = None

    sweep = list(enumerate(space))
    if stored_entry is not None:
        winner = TuneConfig.from_dict(stored_entry.tune_result)
        sweep = [(i, c) for i, c in sweep if c == winner]
        skipped.extend((i, SkippedConfig(c, "store_hit"))
                       for i, c in enumerate(space) if c != winner)
        if not sweep:
            # stored winner from outside the requested space: measure it
            # anyway — it is the best known schedule for this pipeline
            sweep = [(len(space), winner)]

    tasks = []
    for i, config in sweep:
        try:
            options = config.options()
        except Exception as exc:
            skipped.append((i, SkippedConfig(config, f"options: {exc}")))
            continue
        tasks.append(CompileTask(i, tuple(outputs), estimates, options,
                                 backend=backend,
                                 cache_dir=str(cache_dir) if cache_dir
                                 else None,
                                 instrument=profile and backend == "native",
                                 hints=hints))
    configs = dict(sweep)
    infos: dict[int, object] = {}
    # looked up per call: tests substitute ``repro.verify.verify_plan``
    from repro.verify import verify_plan
    for record in run_compile_farm(tasks, n_workers):
        config = configs[record.index]
        infos[record.index] = record.info
        if not record.ok:
            skipped.append((record.index,
                            SkippedConfig(config, record.error)))
            continue
        v_report = verify_plan(record.plan)
        if not v_report.ok:
            summary = "; ".join(
                f"{d.code} {d.message}" for d in v_report.errors[:3])
            if len(v_report.errors) > 3:
                summary += f" (+{len(v_report.errors) - 3} more)"
            skipped.append((record.index,
                            SkippedConfig(config, f"verify: {summary}")))
            continue
        measured.append((record.index,
                         _measure(record, config, param_values, inputs,
                                  backend, n_threads, repeats, name)))

    report.results = [r for _, r in sorted(measured, key=lambda t: t[0])]
    report.skipped = [s for _, s in sorted(skipped, key=lambda t: t[0])]
    report.elapsed_s = time.perf_counter() - start

    if store == "rw" and report.results:
        from repro.codegen.build import build_flags
        from repro.schedule.store import StoredSchedule
        best = report.best(parallel=True)
        best_index = next(i for i, r in measured if r is best)
        info = infos.get(best_index)
        artifact = None
        if info is not None:
            artifact = {"key": info.key, "flags": list(build_flags()),
                        "instrument": profile and backend == "native"}
        sched_store.publish(StoredSchedule(
            pipeline=digest, fingerprint=fingerprint,
            options=best.config.options().to_dict(), hints=hints_doc,
            tune_result=best.to_dict(), artifact=artifact))
    return report
