"""Shared-memory frame transport: slab allocator, views, leak control.

The process-backed serving tier (:mod:`repro.serve.router` /
:mod:`repro.serve.worker`) moves pixel data between the router process
and its worker processes through POSIX shared memory — *never* through
a pipe or a pickle.  This module is the transport layer both sides
share:

* :class:`SlabAllocator` — carves fixed-size, power-of-two *slots* out
  of a small number of ``multiprocessing.shared_memory`` segments
  ("slabs").  Slots are recycled through per-size-class free lists, so
  steady-state serving creates no new segments.  Every slot carries a
  **generation tag** that is bumped on free: a header referencing a
  recycled slot carries a stale generation and is rejected instead of
  silently aliasing a live frame.
* :class:`SlotLease` — one allocated slot; :meth:`SlotLease.ndarray`
  maps it as a zero-copy numpy view, :meth:`SlotLease.header` packs the
  picklable description (segment name, offset, generation, shape,
  dtype) that crosses the command pipe — a few dozen bytes regardless
  of frame size.
* :class:`SegmentMap` — the receiving side: attaches segments lazily by
  name and turns headers back into numpy views over the *same* physical
  pages.
* :class:`ShmBufferPool` — a drop-in :class:`~repro.runtime.buffers.
  BufferPool` whose arrays live in shared memory, so a worker's
  interpreter *and* native backend write outputs straight into pages
  the router can hand to clients.  :meth:`ShmBufferPool.export`
  transfers slot ownership out of the pool when a frame's outputs are
  shipped (the slots stay leased until the router sends a ``free``).

Cleanup discipline: Python's ``resource_tracker`` registers every
``SharedMemory`` open (create *and* attach) and would unlink segments
out from under sibling processes when any one of them exits — so this
module unregisters every handle immediately and makes segment lifetime
an explicit contract: **the router owns every unlink**.  Workers never
unlink; segment names embed a service token so the router (and the
tests' leak checker) can enumerate and reap every segment of a service,
including those of a worker that died mid-frame (see
:func:`live_segments` / :func:`unlink_segments`).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from multiprocessing import shared_memory
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.runtime.buffers import BufferPool

#: every segment name starts with this, followed by the service token
SEGMENT_PREFIX = "reproshm"

#: smallest slot size class (bytes); tiny frames round up to this
MIN_SLOT_BYTES = 4096

#: target slab size — small slots share a slab, huge slots get their own
MIN_SLAB_BYTES = 1 << 20

_token_counter = itertools.count()


def new_token() -> str:
    """A service-unique token embedded in every segment name, so one
    service's segments can be enumerated and reaped without touching a
    concurrent service's."""
    return f"{os.getpid():x}x{next(_token_counter)}"


def _untrack(name: str) -> None:
    """Remove ``name`` from this process's resource tracker.

    Registration happens inside ``SharedMemory.__init__`` for creates
    *and* attaches (bpo-39959); left in place, the first worker to exit
    would unlink segments the router still serves from.  Ownership is
    explicit instead: the router unlinks, everyone else just closes.
    """
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister("/" + name.lstrip("/"),
                                    "shared_memory")
    except Exception:  # noqa: BLE001 - tracker quirks must not break serving
        pass


def create_segment(name: str, size: int) -> shared_memory.SharedMemory:
    """Create an untracked shared-memory segment (owner must unlink)."""
    seg = shared_memory.SharedMemory(name=name, create=True, size=size)
    _untrack(name)
    return seg


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment by name, untracked."""
    seg = shared_memory.SharedMemory(name=name)
    _untrack(name)
    return seg


def shm_dir() -> Path | None:
    """The tmpfs directory POSIX shm segments appear in (Linux)."""
    path = Path("/dev/shm")
    return path if path.is_dir() else None


def _unlink_quiet(seg: shared_memory.SharedMemory) -> None:
    """Unlink a segment without touching the resource tracker.

    ``SharedMemory.unlink`` unregisters the name a second time (this
    module already unregistered it at create/attach), which makes the
    tracker process print a KeyError at exit — so on Linux the name is
    removed straight from the shm filesystem instead.
    """
    root = shm_dir()
    if root is not None:
        try:
            (root / seg.name.lstrip("/")).unlink()
        except OSError:
            pass
        return
    try:
        seg.unlink()
    except OSError:
        pass


def live_segments(token: str) -> list[str]:
    """Names of this service's segments still present in ``/dev/shm`` —
    the leak checker: after ``close()`` this must be empty."""
    root = shm_dir()
    if root is None:
        return []
    prefix = f"{SEGMENT_PREFIX}-{token}-"
    return sorted(p.name for p in root.iterdir()
                  if p.name.startswith(prefix))


def unlink_segments(token: str, role: str | None = None) -> int:
    """Force-unlink segments by token (optionally one worker's ``role``).

    The router's reaper for segments whose creator can no longer unlink
    them — a worker killed mid-frame, or output slabs the worker never
    got to announce.  Already-attached views stay valid (POSIX unlink
    removes the name, not the mapping).  Returns how many were removed.
    """
    root = shm_dir()
    if root is None:
        return 0
    prefix = f"{SEGMENT_PREFIX}-{token}-"
    if role is not None:
        prefix += f"{role}-"
    removed = 0
    for path in list(root.iterdir()):
        if not path.name.startswith(prefix):
            continue
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def _size_class(nbytes: int) -> int:
    """Round a request up to its power-of-two slot class."""
    size = MIN_SLOT_BYTES
    while size < nbytes:
        size <<= 1
    return size


class StaleSlot(RuntimeError):
    """A header referenced a slot generation that has been recycled."""


class SlotLease:
    """One allocated slot: location, generation, and zero-copy views."""

    __slots__ = ("segment", "offset", "nbytes", "gen", "_buf")

    def __init__(self, segment: str, offset: int, nbytes: int, gen: int,
                 buf: memoryview):
        self.segment = segment
        self.offset = offset
        self.nbytes = nbytes
        self.gen = gen
        self._buf = buf

    @property
    def key(self) -> tuple[str, int]:
        """Stable identity of the slot (segment name, byte offset)."""
        return (self.segment, self.offset)

    def ndarray(self, shape: Sequence[int], dtype) -> np.ndarray:
        """A C-contiguous numpy view over the slot's pages (no copy)."""
        return np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                          buffer=self._buf, offset=self.offset)

    def header(self, shape: Sequence[int], dtype) -> tuple:
        """The picklable frame header: everything a peer process needs
        to map this slot — and nothing else.  Pixel data never rides
        along."""
        return (self.segment, self.offset, self.gen,
                tuple(int(n) for n in shape), np.dtype(dtype).str)

    def __repr__(self) -> str:
        return (f"SlotLease({self.segment}+{self.offset}, "
                f"{self.nbytes}B, gen={self.gen})")


class SlabAllocator:
    """Generation-tagged slot allocator over shared-memory slabs.

    One instance per owning process per direction (the router owns the
    input slabs, each worker owns its output slabs).  ``role`` becomes
    part of every segment name, so the router can reap one dead worker's
    slabs without touching its replacement's.

    ``on_segment`` (optional) is called — outside the lock — with
    ``(name, size)`` the moment a new slab is created, *before* any slot
    from it is handed out; workers use it to announce slabs over the
    command pipe so the router knows every name it may need to reap.
    """

    def __init__(self, token: str, role: str, *,
                 min_slab_bytes: int = MIN_SLAB_BYTES,
                 on_segment=None):
        self.token = token
        self.role = role
        self._min_slab = min_slab_bytes
        self._on_segment = on_segment
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: size class -> free (segment, offset) keys
        self._free: dict[int, list[tuple[str, int]]] = {}
        #: (segment, offset) -> [class_bytes, generation, leased?]
        self._slots: dict[tuple[str, int], list] = {}
        self._serial = itertools.count()
        self._hits = 0
        self._misses = 0
        self._leased = 0
        self._stale_frees = 0
        self._closed = False

    # -- allocation --------------------------------------------------------
    def alloc(self, nbytes: int) -> SlotLease:
        """Lease one slot big enough for ``nbytes`` (recycled if
        possible, from a freshly created slab otherwise)."""
        cls = _size_class(int(nbytes))
        created = None
        with self._lock:
            if self._closed:
                raise RuntimeError("allocator is closed")
            free = self._free.get(cls)
            if free:
                key = free.pop()
                self._hits += 1
            else:
                key, created = self._grow(cls)
                self._misses += 1
            slot = self._slots[key]
            slot[2] = True
            self._leased += 1
            lease = SlotLease(key[0], key[1], cls, slot[1],
                              self._segments[key[0]].buf)
        if created is not None and self._on_segment is not None:
            self._on_segment(*created)
        return lease

    def _grow(self, cls: int) -> tuple[tuple[str, int], tuple[str, int]]:
        """Create one new slab for size class ``cls`` (lock held);
        returns (key of the slot to lease now, (name, size) created)."""
        per_slab = max(1, self._min_slab // cls)
        size = cls * per_slab
        name = (f"{SEGMENT_PREFIX}-{self.token}-{self.role}-"
                f"{next(self._serial)}")
        seg = create_segment(name, size)
        self._segments[name] = seg
        free = self._free.setdefault(cls, [])
        for i in range(per_slab):
            key = (name, i * cls)
            self._slots[key] = [cls, 0, False]
            if i:  # slot 0 is leased to the caller
                free.append(key)
        return (name, 0), (name, size)

    def free(self, key: tuple[str, int], gen: int) -> bool:
        """Return a slot to its free list if ``gen`` is current.

        Bumps the slot's generation, so any header still referencing the
        old lease is detectably stale.  A mismatched generation (double
        free, or a free echoed after a respawn) is counted and ignored —
        the slot it names is already serving someone else.
        """
        key = (key[0], int(key[1]))
        with self._lock:
            slot = self._slots.get(key)
            if slot is None or not slot[2] or slot[1] != gen:
                self._stale_frees += 1
                return False
            slot[1] += 1
            slot[2] = False
            self._leased -= 1
            self._free.setdefault(slot[0], []).append(key)
            return True

    def check_current(self, key: tuple[str, int], gen: int) -> None:
        """Raise :class:`StaleSlot` unless ``gen`` is the slot's live
        lease — the aliasing guard receivers can apply to headers."""
        with self._lock:
            slot = self._slots.get((key[0], int(key[1])))
            if slot is None or not slot[2] or slot[1] != gen:
                raise StaleSlot(
                    f"slot {key} gen {gen} is not the live lease")

    # -- introspection -----------------------------------------------------
    def segment_names(self) -> list[str]:
        with self._lock:
            return sorted(self._segments)

    def stats(self) -> dict:
        with self._lock:
            return {
                "segments": len(self._segments),
                "slab_bytes": sum(s.size
                                  for s in self._segments.values()),
                "slots": len(self._slots),
                "leased": self._leased,
                "hits": self._hits,
                "misses": self._misses,
                "stale_frees": self._stale_frees,
            }

    # -- teardown ----------------------------------------------------------
    def close(self, unlink: bool = True) -> None:
        """Close (and for the owner, unlink) every slab.  Idempotent.

        ``close`` on a segment whose pages are still exported as numpy
        views raises ``BufferError``; those handles are left for the
        garbage collector — the *name* is removed regardless, which is
        what the no-leaked-segments contract is about.
        """
        with self._lock:
            self._closed = True
            segments = list(self._segments.values())
            self._segments = {}
            self._free = {}
            self._slots = {}
        for seg in segments:
            if unlink:
                _unlink_quiet(seg)
            try:
                seg.close()
            except BufferError:
                pass  # a live view pins the mapping; GC finishes the job


class SegmentMap:
    """Receiver-side view builder: headers in, zero-copy arrays out.

    Attaches segments lazily by name and caches the handles.  The
    arrays returned by :meth:`view` share pages with the sender —
    nothing is copied, which is the entire point.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def attach(self, name: str) -> shared_memory.SharedMemory:
        with self._lock:
            seg = self._segments.get(name)
            if seg is None:
                seg = self._segments[name] = attach_segment(name)
            return seg

    def view(self, header: tuple) -> np.ndarray:
        """Map a :meth:`SlotLease.header` as a numpy array (no copy)."""
        segment, offset, _gen, shape, dtype = header
        seg = self.attach(segment)
        return np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                          buffer=seg.buf, offset=offset)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._segments)

    def contains(self, array: np.ndarray) -> bool:
        """Does ``array``'s memory live inside an attached segment?
        (The zero-copy regression tests' ground truth.)"""
        addr = array.__array_interface__["data"][0]
        end = addr + array.nbytes
        with self._lock:
            segments = list(self._segments.values())
        for seg in segments:
            base = np.frombuffer(seg.buf, dtype=np.uint8)
            start = base.__array_interface__["data"][0]
            if start <= addr and end <= start + seg.size:
                return True
        return False

    def close(self) -> None:
        """Drop every attachment (views already handed out keep their
        pages alive; handles that still have exported views are left to
        the garbage collector)."""
        with self._lock:
            segments = list(self._segments.values())
            self._segments = {}
        for seg in segments:
            try:
                seg.close()
            except BufferError:
                pass


class ShmBufferPool(BufferPool):
    """A :class:`BufferPool` whose arrays are shared-memory slot views.

    Drop-in for the serving hot paths (``execute_plan(out_pool=...)``
    and ``NativePipeline(..., pool=...)`` both just call ``acquire`` /
    ``release``), so a worker's outputs and interpreter intermediates
    land directly in pages the router can map.  Ownership of a frame's
    output slots is transferred out of the pool with :meth:`export`
    when the frame ships; the slots return via :meth:`free_slot` when
    the router forwards the client's ``Frame.release()``.
    """

    def __init__(self, allocator: SlabAllocator):
        super().__init__()
        self.allocator = allocator
        #: id(array) -> (lease, array) for arrays currently pool-managed
        self._live: dict[int, tuple[SlotLease, np.ndarray]] = {}

    def acquire(self, shape: Sequence[int], dtype,
                fill: float | int = 0) -> np.ndarray:
        shape = tuple(int(n) for n in shape)
        dt = np.dtype(dtype)
        lease = self.allocator.alloc(max(math.prod(shape) * dt.itemsize, 1))
        array = lease.ndarray(shape, dt)
        array.fill(fill)
        with self._lock:
            self._live[id(array)] = (lease, array)
            self._outstanding += 1
            # hit/miss bookkeeping mirrors the slab reuse, so the
            # service's pool stats keep meaning "allocated nothing new"
            self._hits = self.allocator._hits
            self._misses = self.allocator._misses
        return array

    def release(self, *arrays: np.ndarray) -> None:
        with self._lock:
            leases = [self._live.pop(id(a))[0] for a in arrays
                      if id(a) in self._live]
            self._outstanding -= len(leases)
        for lease in leases:
            self.allocator.free(lease.key, lease.gen)

    def export(self, arrays: Iterable[np.ndarray]
               ) -> dict[int, SlotLease]:
        """Take ownership of these arrays' slots out of the pool.

        Returns ``id(array) -> lease`` (deduplicated — aliased outputs
        share a lease).  The slots remain leased in the allocator until
        :meth:`free_slot` is called for each.
        """
        leases: dict[int, SlotLease] = {}
        with self._lock:
            for array in arrays:
                entry = self._live.pop(id(array), None)
                if entry is not None:
                    leases[id(array)] = entry[0]
                    self._outstanding -= 1
        return leases

    def free_slot(self, key: tuple[str, int], gen: int) -> bool:
        """Return an exported slot to the allocator (gen-checked)."""
        return self.allocator.free(key, gen)

    def stats(self) -> dict:
        base = super().stats()
        base["shm"] = self.allocator.stats()
        return base

    def drain(self) -> int:
        # idle slab slots live in the allocator's free lists; there is
        # nothing numpy-side to drop
        return 0
