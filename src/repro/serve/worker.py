"""The serving worker process: one shard of a :class:`ShardedService`.

Each worker is a **spawn-mode** process that owns everything hot for
its shard: the unpickled plan, a private background native build (the
content-addressed :class:`~repro.codegen.build.CompileCache` dedups the
actual ``gcc`` run across workers), its own
:class:`~repro.serve.fallback.FallbackPolicy`, scratch arenas, and an
output :class:`~repro.serve.shm.ShmBufferPool` — so the interpreter
fallback escapes the GIL.

A worker is one loop over its command pipe — no inner queue, no
consumer threads — that runs each frame as it reads it through the
:class:`~repro.serve.service.FrameRunner` the thread service is built
on.  While native serves, the frames *already readable* on the pipe
that are batchable with the one in hand join it in one ``run_batch``
call; nothing waits for a window to fill.  Control messages are handled
as they are read.  While paused, frames park in arrival order and the
oldest one fails with ``DeadlineExceeded("paused at gate")`` if its
deadline runs out first.

The pipe carries **headers only**: a ``frame`` message is the request
id, parameter values by name, and one
:meth:`~repro.serve.shm.SlotLease.header` per input; the reply is the
request id plus one header per output.  Pixels move exclusively through
the shared-memory slabs (:mod:`repro.serve.shm`).

Protocol (router → worker)::

    ("frame", rid, {param: value}, {image: header}, deadline_s | None)
    ("free",  [(slot_key, gen), ...])     # client released outputs
    ("stats", seq) / ("pause",) / ("resume",) / ("release",)
    ("close", drain)

Protocol (worker → router)::

    ("hello", pid)                        # command loop is live
    ("segment", name, size)               # new output slab announced
    ("backend", state)                    # background build resolved
    ("done", rid, {out: header}, backend, marks)
    ("err",  rid, kind, detail, marks)    # kind: deadline | error | ...
                                          # deadline: (where, overrun_s)
    ("stats", seq, payload)
    ("bye", [segment names])              # graceful exit (router unlinks)

Workers never unlink shared memory — segment lifetime is owned by the
router (see :mod:`repro.serve.shm`), which also reaps a killed worker's
slabs by name prefix.
"""

from __future__ import annotations

import os
import pickle
import select
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from functools import partial

from repro.observe.events import Timeline
from repro.serve.deadlines import Deadline, DeadlineExceeded
from repro.serve.service import FrameRunner, _Request
from repro.serve.shm import SegmentMap, ShmBufferPool, SlabAllocator


def _send(conn, lock, msg) -> bool:
    """Best-effort send of one message under ``lock``; False once the
    pipe is down.  Pickled outside the lock, and with plain ``pickle``:
    messages hold builtins only, and ``Connection.send``'s pickler copies
    its reducer table on every call."""
    data = pickle.dumps(msg)
    with lock:
        try:
            conn.send_bytes(data)
            return True
        except (BrokenPipeError, OSError, ValueError):
            return False


class _PipeRunner(FrameRunner):
    """A :class:`FrameRunner` fed by the worker's command pipe.  Frames
    read but not yet run wait in ``backlog`` — only while paused, or for
    the moment a coalescing window is being formed."""

    def __init__(self, conn, send, plan, name: str, cfg: dict,
                 allocator: SlabAllocator):
        super().__init__(
            plan, name, ShmBufferPool(allocator), backend=cfg["backend"],
            n_threads=cfg["n_threads"], max_batch=cfg["max_batch"],
            build_kwargs=cfg["build_kwargs"])
        self.conn = conn
        self.poller = select.poll()  # ~10x cheaper than conn.poll
        self.poller.register(conn.fileno(), select.POLLIN)
        self.send = send
        self.allocator = allocator
        self.inputs_map = SegmentMap()
        self.params_by_name = {p.name: p for p in plan.estimates}
        self.images_by_name = {img.name: img
                               for img in plan.ir.graph.inputs}
        self.backlog: deque[_Request] = deque()
        self.paused = cfg["paused"]  # a respawn under a paused router
        self.closing: bool | None = None  # the close message's drain flag
        self.down = False                 # the pipe broke (router gone)
        self.copied_out = 0  # outputs that were not pool-backed (should be 0)

    def serve(self) -> bool:
        """Run until ``close`` (True: graceful) or the pipe breaks."""
        while self.closing is None and not self.down:
            if self.backlog and not self.paused:
                self.run_next()
                continue
            head = self.backlog[0] if self.backlog else None
            if head is None or head.deadline is None:
                self.read()
                continue
            self.read(max(0.0, head.deadline.remaining()))
            if self.paused and head.deadline.expired():
                # the oldest parked frame ran out of budget at the gate
                self.backlog.popleft()
                self.expire_at_gate(head)
                self.ship(head)
        if self.closing:
            while self.backlog:
                self.run_next()
        for request in self.backlog:
            self.count("cancelled")
            self.send(("err", request.timeline.request_id, "cancelled",
                       "cancelled", []))
        return self.closing is not None

    def read(self, timeout: float | None = None) -> bool:
        """Handle one pipe message if one arrives within ``timeout``
        (``None`` waits for it); False if none did or the pipe is down."""
        try:
            if timeout is not None \
                    and not self.poller.poll(timeout * 1000.0):
                return False
            msg = self.conn.recv()
        except (EOFError, OSError):
            self.down = True
            return False
        kind = msg[0]
        if kind == "frame":
            self.admit(*msg[1:5])
        elif kind == "free":
            for key, gen in msg[1]:
                self.pool.free_slot(tuple(key), gen)
        elif kind == "stats":
            self.send(("stats", msg[1], self.stats_payload()))
        elif kind == "pause":
            self.paused = True
        elif kind == "resume":
            self.paused = False
        elif kind == "release":
            self.release()
        elif kind == "close":
            self.closing = bool(msg[1])
        return True

    def admit(self, rid: int, params: dict, headers: dict,
              deadline_s: float | None) -> None:
        timeline = Timeline(rid)
        timeline.mark("submitted")
        try:
            inputs = {self.images_by_name[image]: self.inputs_map.view(h)
                      for image, h in headers.items()}
            values = {self.params_by_name[param]: value
                      for param, value in params.items()}
        except Exception as exc:  # noqa: BLE001 - bad header/params
            self.send(("err", rid, "error",
                       f"{type(exc).__name__}: {exc}", []))
            return
        deadline = Deadline.after(deadline_s) \
            if deadline_s is not None else None
        self.backlog.append(
            _Request(values, inputs, deadline, Future(), timeline))
        self.count("submitted")

    def run_next(self) -> None:
        """Run the oldest frame, coalesced with the batchable frames
        right behind it once the pipe's readable messages are in."""
        head = self.backlog.popleft()
        self.mark_dequeued(head)
        window = [head]
        if self.batching_open():
            while len(self.backlog) < self.max_batch - 1 \
                    and self.read(0.0):
                pass
            while (self.backlog and len(window) < self.max_batch
                   and self.batchable(head, self.backlog[0])):
                window.append(self.backlog.popleft())
                self.mark_dequeued(window[-1])
        self.run_window(window)
        for request in window:
            self.ship(request)

    def ship(self, request: _Request) -> None:
        """Reply for one resolved request: output headers, or the error.
        Its timeline ships as ``(dt, kind, fields)`` marks relative to
        now, for the router to graft onto the client-facing one."""
        rid = request.timeline.request_id
        anchor = time.monotonic()
        marks = [(event.ts - anchor, event.kind, event.fields)
                 for event in request.timeline.events()]
        exc = request.future.exception()
        if exc is None:
            frame = request.future.result()
            self.send(("done", rid, self.export(frame.outputs),
                       frame.backend, marks))
        elif isinstance(exc, DeadlineExceeded):
            self.send(("err", rid, "deadline", (exc.where, exc.overrun_s),
                       marks))
        else:
            self.send(("err", rid, "error",
                       f"{type(exc).__name__}: {exc}", marks))

    def export(self, outputs: dict) -> dict:
        """Hand the outputs' slots to the router as headers."""
        leases = self.pool.export(outputs.values())
        headers = {}
        for out_name, array in outputs.items():
            lease = leases.get(id(array))
            if lease is None:
                # defensive: an output that bypassed the pool gets
                # staged into a fresh slot (counted — tests pin this
                # path at zero)
                lease = self.allocator.alloc(array.nbytes)
                lease.ndarray(array.shape, array.dtype)[...] = array
                leases[id(array)] = lease
                self.copied_out += 1
            headers[out_name] = lease.header(array.shape, array.dtype)
        return headers

    def stats_payload(self) -> dict:
        return {
            "stats": self.snapshot(len(self.backlog)).to_dict(),
            "metrics": self.refresh_metrics(
                queue_depth=len(self.backlog),
                paused=1.0 if self.paused else 0.0).as_dict(),
            "transport": self.allocator.stats(),
            "copied_out": self.copied_out,
            "build": self.build_provenance(),
        }


def worker_main(conn, plan_bytes: bytes, cfg: dict) -> None:
    """Entry point of one worker process (spawn target).

    ``conn`` is the shard's command pipe, ``plan_bytes`` the pickled
    ``(plan, name)`` pair, ``cfg`` the picklable knobs (token, shard
    index, respawn generation, backend, threads, batch limits, whether
    to start paused).  Runs
    until a ``close`` message or the pipe breaks (router gone).
    """
    # locked: the build watcher thread sends too
    send = partial(_send, conn, threading.Lock())
    try:
        plan, name = pickle.loads(plan_bytes)
        allocator = SlabAllocator(
            cfg["token"], f"w{cfg['shard']}g{cfg['gen']}",
            on_segment=lambda seg, size: send(("segment", seg, size)))
        runner = _PipeRunner(conn, send, plan, f"{name}#{cfg['shard']}",
                             cfg, allocator)
    except Exception:  # noqa: BLE001 - startup failure, report and die
        send(("fatal", traceback.format_exc()))
        conn.close()
        return

    send(("hello", os.getpid()))
    if cfg["backend"] == "interpreter":
        send(("backend", "interpreter"))
    else:
        threading.Thread(
            target=lambda: send(("backend", runner.wait_ready())),
            daemon=True, name="repro-shard-build-watch").start()

    if runner.serve():
        send(("bye", allocator.segment_names()))
    allocator.close(unlink=False)  # the router owns every unlink
    runner.inputs_map.close()
    conn.close()


class WorkerHandle:
    """Router-side proxy for one worker process.

    Owns the process object, the command pipe and its send lock, and
    the respawn generation baked into the worker's segment names.  The
    handle is deliberately dumb — placement, bookkeeping and fault
    handling live in the router.
    """

    def __init__(self, ctx, plan_bytes: bytes, cfg: dict):
        self.role = f"w{cfg['shard']}g{cfg['gen']}"
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main, args=(child, plan_bytes, dict(cfg)),
            daemon=True,
            name=f"repro-shard-{cfg['name']}-{self.role}")
        self._send_lock = threading.Lock()
        self.process.start()
        child.close()  # the child's end lives in the child now

    def send(self, msg) -> bool:
        """Best-effort send; False once the pipe is down."""
        return _send(self.conn, self._send_lock, msg)

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def stop(self, timeout: float) -> None:
        """Give the process ``timeout`` seconds to exit, then escalate
        (terminate, kill); the pipe is closed either way."""
        self.process.join(timeout)
        for escalate in (self.process.terminate, self.process.kill):
            if not self.process.is_alive():
                break
            escalate()
            self.process.join(2.0)
        try:
            self.conn.close()
        except OSError:
            pass
