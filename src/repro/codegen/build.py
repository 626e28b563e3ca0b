"""Compile generated C with the system compiler and load it via ctypes.

This closes the loop the paper's toolchain has: DSL -> optimizer -> C ->
native shared object -> callable pipeline.  The original uses icc with
``-O3 -xhost``; here any ``cc``-compatible compiler works (gcc by
default) with ``-O3 -march=native -fopenmp``.  ``vectorize=False``
compiles with the auto-vectorizer disabled, giving the paper's
non-vectorized comparison points.

Compiled artifacts live in a persistent, concurrency-safe cache
(:class:`CompileCache`).  Artifacts are keyed by a content digest of the
generated C *source* and the compiler *flags* — never by the caller's
pipeline name — so identical configurations hit the cache across
autotune runs and across processes.  Every generated translation unit is
emitted with one canonical entry-point symbol; the user-facing name is
cosmetic (it only affects the :attr:`NativePipeline.source` listing).
Publication is atomic: sources and shared objects are written to
uniquely-named temporaries in the cache directory and moved into place
with :func:`os.replace`, so concurrent writers — e.g. the parallel
autotuner's compile farm (:mod:`repro.autotune.farm`) — can race on the
same key without a reader ever observing a torn file.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.codegen.cgen import generate_c
from repro.compiler.plan import PipelinePlan
from repro.lang.constructs import Parameter
from repro.lang.image import Image
from repro.poly.affine import to_affine

#: the pipeline name every cached translation unit is generated with; the
#: exported symbol is derived from it, so one artifact serves all callers
CANONICAL_NAME = "repro_kernel"
CANONICAL_FUNC = "pipe_" + CANONICAL_NAME


class BuildError(RuntimeError):
    """The C compiler failed or is unavailable."""


def find_compiler() -> str | None:
    """Locate a usable C compiler."""
    for cc in ("gcc", "cc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def compiler_available() -> bool:
    return find_compiler() is not None


def build_flags(*, vectorize: bool = True,
                extra_flags: Sequence[str] = ()) -> tuple[str, ...]:
    """The full compiler flag set for one build configuration.

    ``-ffp-contract=off`` keeps floating-point results independent of
    the emitted expression *shape*: without it the compiler contracts
    different ``a*b + c`` pairs into FMAs depending on how the source is
    factored, and the specialized (CSE'd/hoisted) fast nests would
    differ from the safe nests by a few ULPs.  With contraction off,
    ``specialize=True`` and ``specialize=False`` builds are
    bit-identical.

    ``-fno-trapping-math`` changes no value either: it permits no
    reassociation, contraction or finite-math assumption, only lets the
    compiler evaluate both arms of a ``?:`` (``Select``, ``dmin``,
    ``dmax``) where the default ``-ftrapping-math`` must keep the branch
    in case the untaken arm raises an FP exception.  This runtime never
    unmasks FP exceptions, so the only effect is that if-conversion, and
    with it the vectorizer, reaches data-dependent nests such as
    bilateral's trilinear slice (``docs/internals.md`` §23).
    """
    flags = ["-O3", "-march=native", "-fopenmp", "-shared", "-fPIC",
             "-std=gnu11", "-ffp-contract=off", "-fno-trapping-math"]
    if not vectorize:
        flags += ["-fno-tree-vectorize", "-fno-tree-slp-vectorize"]
    return tuple(flags) + tuple(extra_flags)


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or a per-user temp directory."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / "repro_codegen"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one in-process cache handle."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}


@dataclass(frozen=True)
class NativeStats:
    """Per-group counters read back from an instrumented native build.

    ``group_seconds[i]`` is the wall-clock time the call spent in group
    ``i`` (as measured inside the generated C by ``repro_now()``);
    ``group_tiles[i]`` is the number of tiles it executed (0 for untiled
    groups).  Index order matches ``plan.group_plans``.
    """

    group_seconds: tuple[float, ...]
    group_tiles: tuple[int, ...]

    @property
    def total_seconds(self) -> float:
        return sum(self.group_seconds)

    def as_dict(self) -> dict:
        return {"group_seconds": list(self.group_seconds),
                "group_tiles": list(self.group_tiles)}

    def render(self) -> str:
        lines = []
        for i, (s, t) in enumerate(zip(self.group_seconds,
                                       self.group_tiles)):
            lines.append(f"group {i}: {s * 1e3:.3f} ms"
                         + (f", {t} tiles" if t else ""))
        return "\n".join(lines)


@dataclass(frozen=True)
class BuildInfo:
    """Provenance of one compiled artifact (picklable across processes)."""

    key: str
    so_path: Path
    cache_hit: bool
    compile_s: float

    @property
    def c_path(self) -> Path:
        return self.so_path.with_suffix(".c")


class CompileCache:
    """Persistent cache of compiled shared objects, safe under concurrency.

    Layout: ``<root>/<digest>.so`` plus the matching ``<digest>.c`` for
    inspection, where ``digest`` is a SHA-256 over flags and source.
    Writers compile into dot-prefixed temporaries and publish with
    ``os.replace``; duplicate concurrent builds of the same key are
    allowed (both produce identical bytes, last replace wins).
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root else default_cache_dir()
        self.root.mkdir(parents=True, exist_ok=True)
        self._stats = CacheStats()
        self._lock = threading.Lock()

    # -- keys --------------------------------------------------------------
    @staticmethod
    def key_for(source: str, flags: Sequence[str]) -> str:
        h = hashlib.sha256()
        h.update("\x1f".join(flags).encode())
        h.update(b"\x00")
        h.update(source.encode())
        return h.hexdigest()[:32]

    def so_path(self, key: str) -> Path:
        return self.root / f"{key}.so"

    # -- lookup / build ----------------------------------------------------
    def get_or_compile(self, source: str, flags: Sequence[str],
                       cc: str | None = None) -> BuildInfo:
        """Return the artifact for (source, flags), compiling on miss."""
        key = self.key_for(source, flags)
        so_path = self.so_path(key)
        if so_path.exists():
            with self._lock:
                self._stats.hits += 1
            return BuildInfo(key, so_path, True, 0.0)
        cc = cc or find_compiler()
        if cc is None:
            raise BuildError("no C compiler found (tried gcc, cc, clang)")
        t0 = time.perf_counter()
        tag = uuid.uuid4().hex
        tmp_c = self.root / f".{key}.{tag}.c"
        tmp_so = self.root / f".{key}.{tag}.so"
        try:
            tmp_c.write_text(source)
            cmd = [cc, *flags, str(tmp_c), "-o", str(tmp_so), "-lm"]
            result = subprocess.run(cmd, capture_output=True, text=True)
            if result.returncode != 0:
                raise BuildError(
                    f"C compilation failed:\n{' '.join(cmd)}\n"
                    f"{result.stderr}")
            os.replace(tmp_c, so_path.with_suffix(".c"))
            os.replace(tmp_so, so_path)
        finally:
            for tmp in (tmp_c, tmp_so):
                tmp.unlink(missing_ok=True)
        with self._lock:
            self._stats.misses += 1
        return BuildInfo(key, so_path, False, time.perf_counter() - t0)

    # -- inspection / maintenance -----------------------------------------
    def entries(self) -> list[Path]:
        """Published shared objects, oldest first."""
        return sorted(self.root.glob("*.so"), key=lambda p: p.stat().st_mtime)

    def size_bytes(self) -> int:
        total = 0
        for so in self.entries():
            for path in (so, so.with_suffix(".c")):
                try:
                    total += path.stat().st_size
                except OSError:
                    pass
        return total

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(self._stats.hits, self._stats.misses,
                              self._stats.evictions)

    def reset_stats(self) -> None:
        with self._lock:
            self._stats = CacheStats()

    def _remove(self, so: Path) -> None:
        for path in (so, so.with_suffix(".c")):
            try:
                path.unlink()
            except OSError:
                pass

    def evict(self, max_entries: int | None = None,
              max_bytes: int | None = None) -> int:
        """Drop oldest artifacts until within the given bounds."""
        removed = 0
        entries = self.entries()
        if max_entries is not None:
            while len(entries) > max_entries:
                self._remove(entries.pop(0))
                removed += 1
        if max_bytes is not None:
            while entries and self.size_bytes() > max_bytes:
                self._remove(entries.pop(0))
                removed += 1
        with self._lock:
            self._stats.evictions += removed
        return removed

    def clear(self) -> int:
        """Remove every artifact (and stray temporaries); returns count."""
        removed = 0
        for so in self.entries():
            self._remove(so)
            removed += 1
        for tmp in self.root.glob(".*.c"):
            tmp.unlink(missing_ok=True)
        for tmp in self.root.glob(".*.so"):
            tmp.unlink(missing_ok=True)
        with self._lock:
            self._stats.evictions += removed
        return removed


_caches: dict[str, CompileCache] = {}
_caches_lock = threading.Lock()


def get_cache(cache_dir: str | Path | None = None) -> CompileCache:
    """The process-wide cache handle for a root (default root if None)."""
    root = os.path.abspath(str(cache_dir) if cache_dir
                           else default_cache_dir())
    with _caches_lock:
        cache = _caches.get(root)
        if cache is None:
            cache = _caches[root] = CompileCache(root)
    return cache


#: per-artifact call locks, shared by every :class:`NativePipeline`
#: loaded from the same published ``.so`` — the shared library (and hence
#: its arenas and instrumentation counters) is process-global state, so a
#: per-*instance* lock would not actually protect two instances of the
#: same artifact from racing on it
_call_locks: dict[str, threading.Lock] = {}
_call_locks_lock = threading.Lock()


def _artifact_lock(lib_path: str | Path) -> threading.Lock:
    """The process-wide call lock for one published artifact."""
    key = os.path.realpath(str(lib_path))
    with _call_locks_lock:
        lock = _call_locks.get(key)
        if lock is None:
            lock = _call_locks[key] = threading.Lock()
        return lock


class NativePipeline:
    """A compiled-to-native pipeline, callable like the interpreter.

    When the artifact was built with ``instrument=True``, every call
    resets the in-library counters, runs, and publishes the readings as
    :attr:`last_stats` (a :class:`NativeStats`); uninstrumented builds
    leave :attr:`last_stats` as ``None``.

    **Output-buffer ABI**: output pointers must reference zero-filled
    memory.  This wrapper allocates them with ``np.zeros`` (or acquires
    zero-filled arrays from the caller's ``pool``); specialized builds
    (``CompileOptions.specialize``) rely on it and skip the defensive
    in-library ``memset``.

    **Scratch arenas**: specialized builds keep per-thread scratchpads
    in arenas owned by the shared library — sized at first call, grown
    monotonically, reused across calls.  :meth:`release` frees them
    (exported as ``<func>_release``); nothing calls it implicitly,
    because the ``.so`` (and hence the arena) is shared by every
    ``NativePipeline`` loaded from the same cached artifact.

    **Concurrency**: builds whose library holds shared mutable state —
    scratch arenas or instrumentation counters — serialize calls on a
    *per-artifact* lock (shared across every instance loaded from the
    same ``.so``, see :data:`_call_locks`): concurrent ``ctypes``
    invocations of one such library would race on its arena slots and
    counters.  This is contention by design; callers needing parallel
    native throughput on one artifact should use OpenMP threads within
    a call (``n_threads=N``) rather than concurrent calls.  Builds with
    no shared state (``needs_call_lock`` False — uninstrumented,
    arena-free) take no lock at all: distinct artifacts never serialize
    against each other.

    **Batch ABI**: artifacts additionally export ``<func>_batch(int
    _nframes, int _nthreads, params..., const T* const* in_frames...,
    T* const* out_frames...)``, which sets up the thread team and
    scratch arena once and loops the same tile nests over N frames —
    amortizing per-call dispatch cost for small frames.  The symbol is
    *probed*, never required (:attr:`has_batch`): :meth:`run_batch` on
    an artifact cached before the batch ABI existed degrades to N
    sequential single-frame calls with identical results.
    """

    def __init__(self, plan: PipelinePlan, source: str, lib_path: Path,
                 func_name: str, build_info: BuildInfo | None = None):
        self.plan = plan
        self.source = source
        self.lib_path = lib_path
        self.build_info = build_info
        #: True when this pipeline was resolved through the persistent
        #: schedule store (no generate_c, no compiler invocation)
        self.loaded_from_store = False
        self._lib = ctypes.CDLL(str(lib_path))
        self._func = getattr(self._lib, func_name)
        self._func.restype = None
        self._params = sorted(plan.estimates, key=lambda p: p.name)
        self._images = list(plan.ir.graph.inputs)
        self._outputs = list(plan.outputs)
        self.last_stats: NativeStats | None = None
        self._n_groups = len(plan.group_plans)
        self._call_lock = _artifact_lock(lib_path)
        # stats symbols exist only in instrumented builds — probe, don't
        # require
        try:
            self._stats_fn = getattr(self._lib, func_name + "_stats")
            self._stats_reset = getattr(self._lib,
                                        func_name + "_stats_reset")
        except AttributeError:
            self._stats_fn = self._stats_reset = None
        else:
            self._stats_fn.restype = None
            self._stats_fn.argtypes = [ctypes.POINTER(ctypes.c_double),
                                       ctypes.POINTER(ctypes.c_long)]
            self._stats_reset.restype = None
            self._stats_reset.argtypes = []
        # the arena release symbol exists only in specialized builds
        # with tiled scratch — probe, don't require
        try:
            self._release_fn = getattr(self._lib, func_name + "_release")
        except AttributeError:
            self._release_fn = None
        else:
            self._release_fn.restype = None
            self._release_fn.argtypes = []
        # the batch entry point is absent from artifacts cached before it
        # existed — probe, and let run_batch degrade to sequential calls
        try:
            self._batch_fn = getattr(self._lib, func_name + "_batch")
        except AttributeError:
            self._batch_fn = None
        else:
            self._batch_fn.restype = None

    @property
    def instrumented(self) -> bool:
        return self._stats_fn is not None

    @property
    def has_arena(self) -> bool:
        """Does this build own persistent per-thread scratch arenas?"""
        return self._release_fn is not None

    @property
    def has_batch(self) -> bool:
        """Does the artifact export the multi-frame batch entry point?

        False only for shared objects cached before batch codegen
        existed; :meth:`run_batch` then degrades to sequential
        single-frame calls.
        """
        return self._batch_fn is not None

    @property
    def needs_call_lock(self) -> bool:
        """Does calling this library mutate shared in-library state?

        True for instrumented builds (global counters) and arena-owning
        builds (per-thread scratch slots); such calls serialize on the
        per-artifact lock.  False means calls are re-entrant and taken
        lock-free.
        """
        return self._stats_fn is not None or self._release_fn is not None

    def release(self) -> None:
        """Free the library's persistent per-thread scratch arenas.

        Safe to call at any time (the next invocation re-allocates) and
        on builds without arenas (no-op).
        """
        if self._release_fn is not None:
            with self._call_lock:
                self._release_fn()

    def _read_stats(self) -> NativeStats:
        n = max(1, self._n_groups)
        seconds = (ctypes.c_double * n)()
        tiles = (ctypes.c_long * n)()
        self._stats_fn(seconds, tiles)
        return NativeStats(tuple(seconds[: self._n_groups]),
                           tuple(tiles[: self._n_groups]))

    # -- argument marshalling ---------------------------------------------
    def _checked_params(self, param_values: Mapping) -> dict:
        params = dict(param_values)
        missing = [p.name for p in self._params if p not in params]
        if missing:
            raise ValueError(
                "missing value for parameter(s): "
                + ", ".join(sorted(missing)))
        return params

    def _image_extents(self, image: Image,
                       params: Mapping) -> tuple[int, ...]:
        return tuple(
            to_affine(e, params_only=True).evaluate_int(params)
            for e in image.extents)

    def _checked_input(self, image: Image, inputs: Mapping,
                       extents: tuple[int, ...]) -> np.ndarray:
        if image not in inputs:
            raise ValueError(
                f"missing input array for image {image.name!r}")
        array = np.ascontiguousarray(inputs[image],
                                     dtype=image.dtype.np_dtype)
        if array.shape != extents:
            raise ValueError(
                f"input {image.name!r} has shape {array.shape}, "
                f"expected {extents}")
        return array

    def _output_shape(self, stage, params: Mapping) -> tuple[int, ...]:
        box = self.plan.ir[stage].domain.concretize(params)
        if box is None:
            raise ValueError(
                f"output {stage.name!r} has an empty domain")
        return tuple(ivl.size for ivl in box)

    def _acquire_output(self, stage, shape, pool) -> np.ndarray:
        if pool is not None:
            return pool.acquire(shape, stage.dtype.np_dtype)
        return np.zeros(shape, dtype=stage.dtype.np_dtype)

    def _invoke(self, fn, args, tracer, pool, release_on_error) -> None:
        """Call into the library under the artifact's locking contract."""
        try:
            if not self.needs_call_lock:
                # no shared in-library state: run lock-free, concurrently
                fn(*args)
            else:
                with self._call_lock:
                    if self._stats_reset is not None:
                        self._stats_reset()
                    fn(*args)
                    if self._stats_fn is not None:
                        self.last_stats = self._read_stats()
                        if tracer is not None and tracer.enabled:
                            for i, (s, t) in enumerate(
                                    zip(self.last_stats.group_seconds,
                                        self.last_stats.group_tiles)):
                                tracer.gauge(f"native.group[{i}].seconds",
                                             s)
                                if t:
                                    tracer.count(
                                        f"native.group[{i}].tiles", t)
        except BaseException:
            if pool is not None:
                pool.release(*release_on_error)
            raise

    def _collect_outputs(self, out_arrays: list) -> dict[str, np.ndarray]:
        outputs: dict[str, np.ndarray] = {}
        for original, stage in self.plan.output_map.items():
            idx = self._outputs.index(stage)
            outputs[original.name] = out_arrays[idx]
        return outputs

    def __call__(self, param_values: Mapping[Parameter, int],
                 inputs: Mapping[Image, np.ndarray],
                 *, n_threads: int = 1,
                 tracer=None,
                 pool=None) -> dict[str, np.ndarray]:
        """Run the native pipeline.

        ``pool`` is an optional
        :class:`repro.runtime.buffers.BufferPool`: output arrays are
        acquired from it (zero-filled, per the output ABI) instead of
        freshly allocated, and stay leased until the caller releases
        them — the serving layer uses this for zero-allocation
        steady-state frames.
        """
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        params = self._checked_params(param_values)
        args: list = [ctypes.c_int(n_threads)]
        args += [ctypes.c_long(int(params[p])) for p in self._params]

        arrays = []
        for image in self._images:
            array = self._checked_input(image, inputs,
                                        self._image_extents(image, params))
            arrays.append(array)
            args.append(array.ctypes.data_as(ctypes.c_void_p))

        out_arrays = []
        for stage in self._outputs:
            shape = self._output_shape(stage, params)
            out = self._acquire_output(stage, shape, pool)
            out_arrays.append(out)
            args.append(out.ctypes.data_as(ctypes.c_void_p))
        self._invoke(self._func, args, tracer, pool, out_arrays)
        return self._collect_outputs(out_arrays)

    def run_batch(self, param_values: Mapping[Parameter, int],
                  inputs_list: Sequence[Mapping[Image, np.ndarray]],
                  *, n_threads: int = 1,
                  tracer=None,
                  pool=None) -> list[dict[str, np.ndarray]]:
        """Run ``len(inputs_list)`` frames through one native call.

        Every frame shares ``param_values`` (and hence shapes); inputs
        and outputs are marshalled as per-frame pointer arrays into the
        generated ``<func>_batch`` entry point, which pays the ctypes
        crossing, thread-team setup, arena reservation and intermediate
        allocation once for the whole batch.  Outputs are byte-identical
        to ``len(inputs_list)`` sequential single-frame calls; artifacts
        cached before batch codegen existed (:attr:`has_batch` False)
        transparently degrade to exactly that loop.

        Returns one output dict per frame, in submission order.  As in
        :meth:`__call__`, ``pool`` supplies the zero-filled output
        buffers and gets them all back if the call raises.
        """
        if n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {n_threads}")
        inputs_list = list(inputs_list)
        n = len(inputs_list)
        if n == 0:
            return []
        if self._batch_fn is None:
            return [self(param_values, inputs, n_threads=n_threads,
                         tracer=tracer, pool=pool)
                    for inputs in inputs_list]
        params = self._checked_params(param_values)
        args: list = [ctypes.c_int(n), ctypes.c_int(n_threads)]
        args += [ctypes.c_long(int(params[p])) for p in self._params]

        arrays = []  # keep per-frame input arrays alive across the call
        for image in self._images:
            extents = self._image_extents(image, params)
            ptrs = (ctypes.c_void_p * n)()
            for f, inputs in enumerate(inputs_list):
                array = self._checked_input(image, inputs, extents)
                arrays.append(array)
                ptrs[f] = array.ctypes.data
            args.append(ptrs)

        per_frame_outs: list[list[np.ndarray]] = [[] for _ in range(n)]
        all_outs: list[np.ndarray] = []
        for stage in self._outputs:
            shape = self._output_shape(stage, params)
            ptrs = (ctypes.c_void_p * n)()
            for f in range(n):
                out = self._acquire_output(stage, shape, pool)
                per_frame_outs[f].append(out)
                all_outs.append(out)
                ptrs[f] = out.ctypes.data
            args.append(ptrs)
        self._invoke(self._batch_fn, args, tracer, pool, all_outs)
        return [self._collect_outputs(outs) for outs in per_frame_outs]


def compile_artifact(plan: PipelinePlan, *, vectorize: bool = True,
                     instrument: bool = False,
                     cache_dir: str | Path | None = None,
                     extra_flags: tuple[str, ...] = (),
                     cache: CompileCache | None = None) -> BuildInfo:
    """Generate C for a plan and compile it into the cache (no ctypes load).

    This is the process-safe half of :func:`build_native`: it can run in a
    worker process and its :class:`BuildInfo` result pickles back to the
    parent, which loads the published artifact with :func:`load_native`.
    ``instrument=True`` compiles with in-library per-group timers (the
    different source hashes to a distinct cache key, so instrumented and
    plain builds of the same plan coexist in the cache).
    """
    cc = find_compiler()
    if cc is None:
        raise BuildError("no C compiler found (tried gcc, cc, clang)")
    source = generate_c(plan, CANONICAL_NAME, instrument=instrument)
    flags = build_flags(vectorize=vectorize, extra_flags=tuple(extra_flags))
    if cache is None:
        cache = get_cache(cache_dir)
    return cache.get_or_compile(source, flags, cc)


def load_native(plan: PipelinePlan, name: str = "pipeline",
                info: BuildInfo | None = None) -> NativePipeline:
    """Wrap a published artifact as a callable :class:`NativePipeline`.

    ``info`` is the result of :func:`compile_artifact` (possibly from
    another process).  The ``.source`` attribute is presented under the
    caller's ``name`` even though the artifact exports the canonical
    symbol.
    """
    if info is None:
        return build_native(plan, name)
    try:
        source = info.c_path.read_text()
    except OSError:
        source = generate_c(plan, CANONICAL_NAME)
    from repro.codegen.cgen import _sanitize
    user_func = "pipe_" + _sanitize(name)
    if user_func != CANONICAL_FUNC:
        source = source.replace(CANONICAL_FUNC, user_func)
    return NativePipeline(plan, source, info.so_path, CANONICAL_FUNC,
                          build_info=info)


def _schedule_store(cache: CompileCache | None,
                    cache_dir: str | Path | None,
                    store_root: str | Path | None):
    """The :class:`~repro.schedule.ScheduleStore` next to this cache."""
    from repro.schedule.store import STORE_SUBDIR, ScheduleStore
    if store_root is not None:
        return ScheduleStore(store_root)
    root = cache.root if cache is not None else \
        Path(cache_dir) if cache_dir else default_cache_dir()
    return ScheduleStore(Path(root) / STORE_SUBDIR)


def _plan_store_key(plan: PipelinePlan) -> str:
    """Pipeline digest of the *original* (pre-inline) outputs a plan was
    compiled from — the store key is pipeline identity, not schedule."""
    from repro.schedule.store import pipeline_digest
    return pipeline_digest(list(plan.output_map), plan.estimates)


def _hints_dict(plan: PipelinePlan) -> dict | None:
    return plan.hints.to_dict() if plan.hints is not None else None


def _try_store_load(plan: PipelinePlan, name: str, *, entry,
                    vectorize: bool, instrument: bool,
                    cache: CompileCache) -> NativePipeline | None:
    """Load the stored artifact if it matches this plan's schedule and
    build configuration — the cold-start fast path: no ``generate_c``,
    no compiler invocation, just a ``dlopen`` of the published ``.so``."""
    if entry is None or entry.artifact is None:
        return None
    if entry.compile_options() != plan.options:
        return None
    if (entry.hints or None) != (_hints_dict(plan) or None):
        return None
    if bool(entry.artifact.get("vectorize", True)) != bool(vectorize):
        return None
    if bool(entry.artifact.get("instrument", False)) != bool(instrument):
        return None
    so_path = cache.so_path(entry.artifact["key"])
    if not so_path.exists():
        return None
    info = BuildInfo(entry.artifact["key"], so_path, True, 0.0)
    native = load_native(plan, name, info)
    native.loaded_from_store = True
    return native


def build_native(plan: PipelinePlan, name: str = "pipeline",
                 *, vectorize: bool = True,
                 instrument: bool = False,
                 cache_dir: str | Path | None = None,
                 extra_flags: tuple[str, ...] = (),
                 cache: CompileCache | None = None,
                 store: str | None = None,
                 store_root: str | Path | None = None) -> NativePipeline:
    """Generate, compile and load the C implementation of a plan.

    ``instrument=True`` builds with per-group timers and tile counters;
    the loaded :class:`NativePipeline` then fills ``last_stats`` after
    every call.

    ``store="ro"|"rw"`` consults the persistent schedule store
    (:mod:`repro.schedule`) before compiling: when the store holds an
    entry for this pipeline (content digest) on this machine
    (fingerprint) whose schedule and build configuration match the
    plan's, the published artifact is loaded directly — no codegen, no
    compiler invocation (``native.loaded_from_store`` is True).  With
    ``"rw"`` a fresh build additionally publishes its artifact
    coordinates, unless a tuned entry already exists (autotune winners
    are never clobbered by untimed builds).  ``store_root`` overrides
    the store directory (default: ``<cache root>/schedules``)."""
    if store not in (None, "ro", "rw"):
        raise ValueError(f"store must be None, 'ro' or 'rw', got {store!r}")
    entry = None
    if store is not None:
        from repro.schedule.store import (
            StoredSchedule, machine_fingerprint,
        )
        if cache is None:
            cache = get_cache(cache_dir)
        sched_store = _schedule_store(cache, cache_dir, store_root)
        digest = _plan_store_key(plan)
        fingerprint = machine_fingerprint()
        entry = sched_store.lookup(digest, fingerprint)
        native = _try_store_load(plan, name, entry=entry,
                                 vectorize=vectorize,
                                 instrument=instrument, cache=cache)
        if native is not None:
            return native
    info = compile_artifact(plan, vectorize=vectorize, instrument=instrument,
                            cache_dir=cache_dir, extra_flags=extra_flags,
                            cache=cache)
    native = load_native(plan, name, info)
    if store == "rw" and (entry is None or entry.tune_result is None):
        sched_store.publish(StoredSchedule(
            pipeline=digest, fingerprint=fingerprint,
            options=plan.options.to_dict(), hints=_hints_dict(plan),
            tune_result=entry.tune_result if entry is not None else None,
            artifact={"key": info.key, "vectorize": bool(vectorize),
                      "instrument": bool(instrument)},
            created=time.time()))
    return native


class AsyncBuild:
    """Handle to a native build running on a background thread.

    The serving layer (:mod:`repro.serve`) starts one of these and keeps
    answering requests with the interpreter until :meth:`done`; callers
    then pick up the :class:`NativePipeline` with :meth:`result` or the
    failure with :meth:`exception`.  The thread is a daemon — an exiting
    process never blocks on a half-finished ``gcc``.
    """

    def __init__(self, plan: PipelinePlan, name: str = "pipeline",
                 **kwargs):
        self.plan = plan
        self.name = name
        self._native: NativePipeline | None = None
        self._exc: BaseException | None = None
        self._finished = threading.Event()
        self._thread = threading.Thread(
            target=self._run, kwargs=kwargs, daemon=True,
            name=f"repro-build-{name}")
        self._thread.start()

    def _run(self, **kwargs) -> None:
        try:
            # module-global lookup on purpose: tests monkeypatch
            # ``build_native`` to inject compiler/load failures
            self._native = build_native(self.plan, self.name, **kwargs)
        except BaseException as exc:  # published via exception()
            self._exc = exc
        finally:
            self._finished.set()

    def done(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the build finishes (or ``timeout``); True if done."""
        return self._finished.wait(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._finished.wait(timeout):
            raise TimeoutError(f"build of {self.name!r} still running")
        return self._exc

    def result(self, timeout: float | None = None) -> NativePipeline:
        """The built pipeline; re-raises the build failure if there was
        one, :class:`TimeoutError` if still compiling after ``timeout``."""
        if not self._finished.wait(timeout):
            raise TimeoutError(f"build of {self.name!r} still running")
        if self._exc is not None:
            raise self._exc
        assert self._native is not None
        return self._native


def build_native_async(plan: PipelinePlan, name: str = "pipeline",
                       **kwargs) -> AsyncBuild:
    """Start :func:`build_native` on a background thread.

    Returns immediately with an :class:`AsyncBuild`; ``kwargs`` are
    forwarded to :func:`build_native` (``vectorize``, ``instrument``,
    ``cache_dir``, ...).
    """
    return AsyncBuild(plan, name, **kwargs)
