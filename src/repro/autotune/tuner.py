"""Model-driven autotuning (paper Section 3.8, Figure 9).

The optimizer reduces the schedule space to tile sizes and the overlap
threshold; the autotuner exhaustively times that small space — seven tile
sizes per tiled dimension and three thresholds, i.e. 147 configurations
for the two-tilable-dimension pipelines of the paper — and reports every
configuration's single-thread and multi-thread time (the data behind
Figure 9's scatter plots) plus the best configuration.

With ``n_workers > 1`` the compile half of the sweep (middle end + gcc)
fans out over a thread pool in the calling process while every timing
run stays on the calling thread, one configuration at a time.  The
compile cache builds each distinct C source once per process, so
configurations that generate the same C share one gcc run.  Each
configuration's compile time and compile-cache hit/miss are recorded
alongside its run times in the :class:`TuningReport`, which serializes
to JSON for the bench harnesses.  :func:`_sweep` is the compile → verify
→ load → time loop that :func:`autotune` and
:func:`~repro.autotune.random_search.random_search` share.
"""

from __future__ import annotations

import itertools
import json
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.compiler.options import (
    OVERLAP_THRESHOLD_CHOICES, TILE_SIZE_CHOICES, CompileOptions,
)
from repro.compiler.plan import PipelinePlan, compile_plan


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
                  thresholds: Sequence[float] = OVERLAP_THRESHOLD_CHOICES
                  ) -> list[TuneConfig]:
    """The paper's restricted space: |tile_choices|^n_dims * |thresholds|."""
    return [TuneConfig(tiles, th)
            for tiles in itertools.product(tile_choices, repeat=n_dims)
            for th in thresholds]


@dataclass(frozen=True)
class TimingStats:
    """Timing distribution of one measured configuration (milliseconds).

    Follows the paper's protocol: the first (warm-up) run is discarded
    and the statistics summarize the remaining ``runs`` measurements.
    """

    min_ms: float
    mean_ms: float
    std_ms: float
    runs: int

    @classmethod
    def from_times(cls, times_ms: list[float]) -> "TimingStats":
        arr = np.asarray(times_ms, dtype=np.float64)
        return cls(float(arr.min()), float(arr.mean()),
                   float(arr.std()), len(times_ms))

    def as_dict(self) -> dict:
        return {"min_ms": self.min_ms, "mean_ms": self.mean_ms,
                "std_ms": self.std_ms, "runs": self.runs}

    def render(self) -> str:
        return (f"{self.min_ms:.2f} ms min, {self.mean_ms:.2f} ms mean "
                f"(± {self.std_ms:.2f}, n={self.runs})")


def time_stats(fn: Callable[[], object], runs: int = 6) -> TimingStats:
    """The paper's protocol with the full distribution: run ``runs``
    times, discard the first (warm-up), and summarize the rest."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    kept = times[1:] if len(times) > 1 else times
    return TimingStats.from_times(kept)


@dataclass
class _Trial:
    """One configuration's way through :func:`_sweep`.

    ``error`` is the reason it was skipped (``options:``, ``plan:``,
    ``build:``, ``verify:`` or ``run:``); otherwise ``times`` holds one
    :class:`TimingStats` per requested thread count.
    """

    index: int
    config: object
    plan: PipelinePlan | None = None
    info: object = None  # repro.codegen.build.BuildInfo for native builds
    error: str | None = None
    times: list[TimingStats] = field(default_factory=list)
    profile: dict | None = None

    @property
    def compile_s(self) -> float:
        return self.info.compile_s if self.info is not None else 0.0

    @property
    def cache_hit(self) -> bool | None:
        return self.info.cache_hit if self.info is not None else None


def _short_reason(prefix: str, exc: BaseException) -> str:
    text = " ".join(str(exc).split())
    if len(text) > 240:
        text = text[:240] + "..."
    return f"{prefix}: {type(exc).__name__}: {text}" if text else \
        f"{prefix}: {type(exc).__name__}"


def _compiled(trials: list[_Trial], n_workers: int,
              compile_one: Callable[[_Trial], _Trial]) -> Iterator[_Trial]:
    """Yield each trial once compiled: in order on the calling thread when
    ``n_workers <= 1``, else in completion order from a thread pool (gcc
    runs as a subprocess, so its builds overlap)."""
    if n_workers <= 1 or len(trials) <= 1:
        for trial in trials:
            yield compile_one(trial)
        return
    with ThreadPoolExecutor(max_workers=min(n_workers, len(trials)),
                            thread_name_prefix="repro-tune") as pool:
        futures = [pool.submit(compile_one, trial) for trial in trials]
        for future in as_completed(futures):
            yield future.result()


def _measure(trial: _Trial, param_values, inputs, backend: str, name: str,
             thread_counts: Sequence[int], runs: int) -> None:
    """Load (native) or interpret one verified plan and time it at each
    thread count with :func:`time_stats`."""
    pipe = None
    if backend == "native":
        from repro.codegen.build import load_native
        pipe = load_native(trial.plan, f"{name}_{trial.index}", trial.info)

        def run(n: int):
            return pipe(param_values, inputs, n_threads=n)
    else:
        from repro.runtime.executor import execute_plan

        def run(n: int):
            return execute_plan(trial.plan, param_values, inputs,
                                n_threads=n)

    trial.times = [time_stats(lambda: run(n), runs) for n in thread_counts]
    # per-group profile of the last run, for instrumented builds
    if pipe is not None and pipe.last_stats is not None:
        trial.profile = pipe.last_stats.as_dict()


def _sweep(outputs, estimates: Mapping, param_values: Mapping,
           inputs: Mapping, configs: Iterable[tuple[int, object]], *,
           backend: str, n_workers: int, cache_dir, name: str,
           thread_counts: Sequence[int], runs: int,
           instrument: bool = False, hints=None) -> list[_Trial]:
    """Compile → verify → load → time every ``(index, config)`` pair.

    Compiles fan out over ``n_workers`` threads (see :func:`_compiled`);
    verification and timing stay on the calling thread, one
    configuration at a time, in completion order.  Returns every trial
    in the order given, skipped ones carrying ``error``.
    """
    # hints stay a keyword-only extra so an unhinted sweep calls
    # compile_plan with its historical 3-arg shape
    hint_kwargs = {"hints": hints} if hints is not None else {}
    # looked up per call: tests substitute ``repro.verify.verify_plan``
    from repro.verify import verify_plan

    def compile_one(trial: _Trial) -> _Trial:
        """Middle end, then gcc for the native backend; a failure becomes
        ``trial.error``, so one broken configuration cannot abort a
        sweep."""
        try:
            options = trial.config.options()
        except Exception as exc:
            trial.error = f"options: {exc}"
            return trial
        try:
            trial.plan = compile_plan(list(outputs), estimates, options,
                                      **hint_kwargs)
        except Exception as exc:
            trial.error = _short_reason("plan", exc)
            return trial
        if backend == "native":
            from repro.codegen.build import BuildError, compile_artifact
            try:
                trial.info = compile_artifact(
                    trial.plan, instrument=instrument, cache_dir=cache_dir)
            except BuildError as exc:
                trial.error = _short_reason("build", exc)
        return trial

    trials = [_Trial(i, config) for i, config in configs]
    for trial in _compiled(trials, n_workers, compile_one):
        if trial.error is not None:
            continue
        v_report = verify_plan(trial.plan)
        if not v_report.ok:
            summary = "; ".join(
                f"{d.code} {d.message}" for d in v_report.errors[:3])
            if len(v_report.errors) > 3:
                summary += f" (+{len(v_report.errors) - 3} more)"
            trial.error = f"verify: {summary}"
            continue
        try:
            _measure(trial, param_values, inputs, backend, name,
                     thread_counts, runs)
        except Exception as exc:
            trial.error = f"run: {exc}"
    return trials


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
    compiler).  Configurations whose compilation or run fails are skipped
    and recorded, with the failure reason, in ``report.skipped``.

    ``n_workers > 1`` compiles configurations concurrently on that many
    threads of the calling process; timing always runs one configuration
    at a time on the calling thread, and the returned report is ordered
    and selected identically to a serial sweep.  A serial sweep times
    each configuration while no compile runs; a parallel one overlaps
    timing with other configurations' builds.

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
    measured: list[tuple[_Trial, TuneResult]] = []
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

    trials = _sweep(outputs, estimates, param_values, inputs, sweep,
                    backend=backend, n_workers=n_workers,
                    cache_dir=cache_dir, name=name,
                    thread_counts=(1, n_threads), runs=repeats + 1,
                    instrument=profile and backend == "native",
                    hints=hints)
    for trial in trials:
        if trial.error is not None:
            skipped.append((trial.index,
                            SkippedConfig(trial.config, trial.error)))
            continue
        single, parallel = trial.times
        measured.append((trial, TuneResult(
            trial.config, single.min_ms, parallel.min_ms,
            len(trial.plan.group_plans), compile_s=trial.compile_s,
            cache_hit=trial.cache_hit, time_single_std_ms=single.std_ms,
            time_parallel_std_ms=parallel.std_ms, profile=trial.profile)))

    report.results = [r for _, r in measured]
    report.skipped = [s for _, s in sorted(skipped, key=lambda t: t[0])]
    report.elapsed_s = time.perf_counter() - start

    if store == "rw" and report.results:
        from repro.codegen.build import build_flags
        from repro.schedule.store import StoredSchedule
        best = report.best(parallel=True)
        info = next(t.info for t, r in measured if r is best)
        artifact = None
        if info is not None:
            artifact = {"key": info.key, "flags": list(build_flags()),
                        "instrument": profile and backend == "native"}
        sched_store.publish(StoredSchedule(
            pipeline=digest, fingerprint=fingerprint,
            options=best.config.options().to_dict(), hints=hints_doc,
            tune_result=best.to_dict(), artifact=artifact))
    return report
