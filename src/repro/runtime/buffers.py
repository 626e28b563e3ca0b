"""Buffer views and buffer pools for the interpreter backend.

A :class:`BufferView` couples an ndarray with the domain origin it
represents, so stages can be stored in *full* buffers (origin = domain
lower bound) or tile-local *scratchpads* (origin = region lower bound)
and read through the same interface.  Reads clip indices to the stored
extent: case conditions guarantee clipped values are never actually used,
clipping just keeps speculative evaluation in-bounds (the generated C
clamps loop bounds the same way).

A :class:`BufferPool` recycles the full-size arrays a plan execution
allocates (outputs, live-out intermediates, accumulators) across frames:
the serving layer (:mod:`repro.serve`) executes every frame of one
pipeline against one pool, so steady-state serving performs zero
per-frame output allocation.  Recycled arrays are re-filled with the
requested fill value — the execution semantics rely on buffers starting
at zero outside case regions, and the native backend's output ABI
requires zero-filled pointers.
"""

from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from repro.poly.interval import IntInterval


class BufferView:
    """An ndarray plus the coordinate of its ``[0, ..., 0]`` element."""

    __slots__ = ("array", "origin")

    def __init__(self, array: np.ndarray, origin: Sequence[int]):
        if array.ndim != len(tuple(origin)):
            raise ValueError("origin must have one entry per array dim")
        self.array = array
        self.origin = tuple(int(o) for o in origin)

    @classmethod
    def allocate(cls, box: Sequence[IntInterval], dtype: np.dtype,
                 fill: float | int = 0) -> "BufferView":
        """Allocate a zero/``fill``-initialised buffer covering ``box``."""
        shape = tuple(ivl.size for ivl in box)
        if fill == 0:
            array = np.zeros(shape, dtype=dtype)
        else:
            array = np.full(shape, fill, dtype=dtype)
        return cls(array, tuple(ivl.lo for ivl in box))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def covers(self, box: Sequence[IntInterval]) -> bool:
        return all(o <= ivl.lo and ivl.hi < o + n
                   for o, n, ivl in zip(self.origin, self.shape, box))

    # -- reads ------------------------------------------------------------
    def read_strided(self, dim_specs: Sequence[tuple[int, int, int, int]]
                     ) -> np.ndarray | None:
        """Read via slices, one ``(a, b, lo, hi)`` spec per dimension.

        Selects ``array[a*v + b - origin]`` for ``v`` in ``[lo, hi]``.
        Returns ``None`` when any index would fall outside the stored
        extent (the caller falls back to the clipped gather).
        """
        slices = []
        for (a, b, lo, hi), org, n in zip(dim_specs, self.origin, self.shape):
            start = a * lo + b - org
            last = a * hi + b - org
            if start < 0 or last >= n:
                return None
            slices.append(slice(start, last + 1, a))
        return self.array[tuple(slices)]

    def read_gather(self, index_arrays: Sequence[np.ndarray | int]
                    ) -> np.ndarray:
        """Clipped fancy-indexed read with broadcastable index arrays."""
        rel = []
        for idx, org, n in zip(index_arrays, self.origin, self.shape):
            r = np.asarray(idx) - org
            rel.append(np.clip(r, 0, n - 1))
        return self.array[tuple(rel)]

    # -- writes -----------------------------------------------------------
    def region_slices(self, box: Sequence[IntInterval]) -> tuple[slice, ...]:
        return tuple(slice(ivl.lo - o, ivl.hi - o + 1)
                     for ivl, o in zip(box, self.origin))

    def write_region(self, box: Sequence[IntInterval],
                     values: np.ndarray) -> None:
        self.array[self.region_slices(box)] = values

    def read_region(self, box: Sequence[IntInterval]) -> np.ndarray:
        return self.array[self.region_slices(box)]


class BufferPool:
    """Reusable ndarray pool keyed by (shape, dtype), safe for threads.

    ``acquire`` hands out an array *filled* with the requested value
    (recycled arrays are re-filled; fresh ones come from ``np.zeros`` /
    ``np.full``), so pooled buffers are indistinguishable from freshly
    allocated ones.  ``release`` returns arrays for reuse; releasing an
    array twice or releasing foreign arrays is the caller's bug — the
    pool does not track outstanding leases by identity, only a count.
    """

    def __init__(self):
        self._free: dict[tuple[tuple[int, ...], str], list[np.ndarray]] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._outstanding = 0

    @staticmethod
    def _key(shape: tuple[int, ...],
             dtype: np.dtype) -> tuple[tuple[int, ...], str]:
        return tuple(shape), np.dtype(dtype).str

    # -- leases ------------------------------------------------------------
    def acquire(self, shape: Sequence[int], dtype: np.dtype,
                fill: float | int = 0) -> np.ndarray:
        """A filled array of the given shape/dtype, recycled if possible."""
        shape = tuple(int(n) for n in shape)
        key = self._key(shape, dtype)
        with self._lock:
            bucket = self._free.get(key)
            array = bucket.pop() if bucket else None
            if array is not None:
                self._hits += 1
            else:
                self._misses += 1
            self._outstanding += 1
        if array is None:
            if fill == 0:
                return np.zeros(shape, dtype=dtype)
            return np.full(shape, fill, dtype=dtype)
        array.fill(fill)
        return array

    def acquire_view(self, box: Sequence[IntInterval], dtype: np.dtype,
                     fill: float | int = 0) -> BufferView:
        """Pooled counterpart of :meth:`BufferView.allocate`."""
        shape = tuple(ivl.size for ivl in box)
        return BufferView(self.acquire(shape, dtype, fill),
                          tuple(ivl.lo for ivl in box))

    def release(self, *arrays: np.ndarray) -> None:
        """Return arrays to the pool for reuse by later ``acquire`` calls.

        The caller must not touch an array after releasing it: the next
        frame may already be writing into it.
        """
        with self._lock:
            for array in arrays:
                self._outstanding -= 1
                key = self._key(array.shape, array.dtype)
                self._free.setdefault(key, []).append(array)

    # -- inspection / maintenance -----------------------------------------
    def stats(self) -> dict:
        """Snapshot: hits, misses, hit_rate, outstanding and idle counts."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": self._hits / lookups if lookups else 0.0,
                "outstanding": self._outstanding,
                "idle": sum(len(b) for b in self._free.values()),
            }

    def drain(self) -> int:
        """Drop every idle array; returns how many were freed."""
        with self._lock:
            n = sum(len(b) for b in self._free.values())
            self._free.clear()
        return n
