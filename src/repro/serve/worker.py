"""The serving worker process: one shard of a :class:`ShardedService`.

Each worker is a **spawn-mode** process that owns everything hot for
its shard: the unpickled plan, a private background native build (the
content-addressed :class:`~repro.codegen.build.CompileCache` dedups the
actual ``gcc`` run across workers), its own
:class:`~repro.serve.fallback.FallbackPolicy`, scratch arenas, and an
output :class:`~repro.serve.shm.ShmBufferPool` — so the interpreter
fallback escapes the GIL entirely.

Internally a worker is simply a :class:`~repro.serve.service.
PipelineService` (threads, bounded queue, deadlines, coalescing —
PR 6's batch windows form in the worker's own queue) fed by a command
pipe.  The pipe carries **headers only**: a ``frame`` message is the
request id, parameter values by name, and one
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
    ("done", rid, {out: header}, backend, marks, latency_s)
    ("err",  rid, kind, detail, marks)    # kind: deadline | error | ...
                                          # deadline detail = the `where`
    ("stats", seq, payload)
    ("bye", [segment names])              # graceful exit (router unlinks)

Workers never unlink shared memory — segment lifetime is owned by the
router (see :mod:`repro.serve.shm`), which also reaps a killed worker's
slabs by name prefix.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
import traceback
from concurrent.futures import CancelledError

from repro.serve.deadlines import DeadlineExceeded
from repro.serve.queue import Overloaded, ServiceClosed
from repro.serve.shm import SegmentMap, ShmBufferPool, SlabAllocator

#: inner-service defaults a shard runs with unless the router overrides
DEFAULT_INNER_WORKERS = 2


def _relative_marks(timeline, anchor: float) -> list[tuple]:
    """Compress a worker-side timeline into picklable ``(dt, kind,
    fields)`` marks relative to ``anchor`` — the router grafts them back
    onto the client-facing timeline."""
    if timeline is None:
        return []
    marks = []
    for event in timeline.events():
        fields = {k: v for k, v in event.fields.items()
                  if isinstance(k, str)
                  and isinstance(v, (str, int, float, bool, type(None)))}
        marks.append((event.ts - anchor, event.kind, fields))
    return marks


def worker_main(conn, plan_bytes: bytes, cfg: dict) -> None:
    """Entry point of one worker process (spawn target).

    ``conn`` is the shard's command pipe, ``plan_bytes`` the pickled
    ``(plan, name)`` pair, ``cfg`` the picklable knobs (token, shard
    index, respawn generation, backend, threads, queue and batch
    limits).  Runs until a ``close`` message or the pipe breaks (router
    gone), then shuts the inner service down and exits.
    """
    from repro.api import CompiledPipeline
    from repro.serve.service import PipelineService

    send_lock = threading.Lock()

    def send(msg) -> bool:
        with send_lock:
            try:
                conn.send(msg)
                return True
            except (BrokenPipeError, OSError):
                return False

    try:
        plan, name = pickle.loads(plan_bytes)
        compiled = CompiledPipeline(plan, name)
        role = f"w{cfg['shard']}g{cfg['gen']}"
        allocator = SlabAllocator(
            cfg["token"], role,
            on_segment=lambda seg, size: send(("segment", seg, size)))
        pool = ShmBufferPool(allocator)
        inputs_map = SegmentMap()
        service = PipelineService(
            compiled,
            workers=cfg.get("inner_workers", DEFAULT_INNER_WORKERS),
            max_queue=cfg.get("max_queue", 64),
            backend=cfg.get("backend", "auto"),
            n_threads=cfg.get("n_threads", 1),
            vectorize=cfg.get("vectorize", True),
            pool=pool,
            max_batch=cfg.get("max_batch", 8),
            coalesce=cfg.get("coalesce", True),
            build_kwargs=cfg.get("build_kwargs") or {},
            name=f"{name}#{cfg['shard']}")
    except Exception:  # noqa: BLE001 - startup failure, report and die
        send(("fatal", traceback.format_exc()))
        conn.close()
        return

    send(("hello", os.getpid()))
    params_by_name = {p.name: p for p in plan.estimates}
    images_by_name = {img.name: img for img in plan.ir.graph.inputs}

    if cfg.get("backend", "auto") == "interpreter":
        send(("backend", "interpreter"))
    else:
        def _announce_backend() -> None:
            send(("backend", service.wait_ready()))

        threading.Thread(target=_announce_backend, daemon=True,
                         name="repro-shard-build-watch").start()

    copied_out = 0  # outputs that were not pool-backed (should be 0)

    def _ship(rid: int, future) -> None:
        """Completion callback: turn an inner-service result into a
        header-only reply.  Runs on an inner worker thread."""
        nonlocal copied_out
        anchor = time.monotonic()
        try:
            frame = future.result()
        except (Exception, CancelledError) as exc:  # noqa: BLE001 - relayed
            marks = _relative_marks(getattr(exc, "timeline", None), anchor)
            if isinstance(exc, DeadlineExceeded):
                # ship the checkpoint name so the router's reason
                # buckets stay as precise as the thread service's
                send(("err", rid, "deadline", exc.where, marks))
            elif isinstance(exc, CancelledError):
                send(("err", rid, "cancelled", "cancelled", marks))
            else:
                send(("err", rid, "error",
                      f"{type(exc).__name__}: {exc}", marks))
            return
        leases = pool.export(frame.outputs.values())
        headers = {}
        for out_name, array in frame.outputs.items():
            lease = leases.get(id(array))
            if lease is None:
                # defensive: an output that bypassed the pool gets
                # staged into a fresh slot (counted — tests pin this
                # path at zero)
                lease = allocator.alloc(array.nbytes)
                staged = lease.ndarray(array.shape, array.dtype)
                staged[...] = array
                leases[id(array)] = lease
                copied_out += 1
            headers[out_name] = lease.header(array.shape, array.dtype)
        marks = _relative_marks(frame.timeline(), anchor)
        send(("done", rid, headers, frame.backend, marks,
              frame.latency_s))

    closing_drain = True
    graceful = False
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # router is gone; drain and exit
        kind = msg[0]
        if kind == "frame":
            _rid, params, input_headers, deadline_s = msg[1:5]
            try:
                inputs = {images_by_name[image]: inputs_map.view(header)
                          for image, header in input_headers.items()}
                values = {params_by_name[param]: value
                          for param, value in params.items()}
                future = service.submit(values, inputs,
                                        deadline_s=deadline_s)
            except Overloaded as exc:
                send(("err", _rid, "overloaded", str(exc), []))
                continue
            except ServiceClosed as exc:
                send(("err", _rid, "closed", str(exc), []))
                continue
            except Exception as exc:  # noqa: BLE001 - bad header/params
                send(("err", _rid, "error",
                      f"{type(exc).__name__}: {exc}", []))
                continue
            future.add_done_callback(
                lambda fut, rid=_rid: _ship(rid, fut))
        elif kind == "free":
            for key, gen in msg[1]:
                pool.free_slot(tuple(key), gen)
        elif kind == "stats":
            payload = {
                "stats": service.stats().to_dict(),
                "metrics": service.metrics.as_dict(),
                "transport": allocator.stats(),
                "copied_out": copied_out,
                "build": service.build_provenance(),
            }
            send(("stats", msg[1], payload))
        elif kind == "pause":
            service.pause()
        elif kind == "resume":
            service.resume()
        elif kind == "release":
            service.release()
        elif kind == "close":
            closing_drain = bool(msg[1])
            graceful = True
            break
    try:
        service.close(drain=closing_drain)
    except Exception:  # noqa: BLE001 - exit anyway
        pass
    if graceful:
        send(("bye", allocator.segment_names()))
    allocator.close(unlink=False)  # the router owns every unlink
    inputs_map.close()
    conn.close()


class WorkerHandle:
    """Router-side proxy for one worker process.

    Owns the process object, the command pipe and its send lock, and
    the respawn generation baked into the worker's segment names.  The
    handle is deliberately dumb — placement, bookkeeping and fault
    handling live in the router.
    """

    def __init__(self, ctx, plan_bytes: bytes, cfg: dict):
        self.cfg = dict(cfg)
        self.role = f"w{cfg['shard']}g{cfg['gen']}"
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main, args=(child, plan_bytes, self.cfg),
            daemon=True,
            name=f"repro-shard-{cfg['name']}-{self.role}")
        self._send_lock = threading.Lock()
        self.process.start()
        child.close()  # the child's end lives in the child now

    def send(self, msg) -> bool:
        """Best-effort send; False once the pipe is down."""
        with self._send_lock:
            try:
                self.conn.send(msg)
                return True
            except (BrokenPipeError, OSError, ValueError):
                return False

    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def join(self, timeout: float | None = None) -> None:
        self.process.join(timeout)

    def terminate(self) -> None:
        try:
            self.process.terminate()
        except Exception:  # noqa: BLE001 - already gone
            pass

    def kill(self) -> None:
        try:
            self.process.kill()
        except Exception:  # noqa: BLE001 - already gone
            pass

    def close_conn(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
