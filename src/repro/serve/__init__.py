"""Streaming serving runtime: bounded batching, deadlines, fallback.

Turn a compiled pipeline into a long-lived service::

    from repro import compile_pipeline
    from repro.serve import PipelineService

    compiled = compile_pipeline([harris], estimates={R: 512, C: 512})
    with PipelineService(compiled, workers=2, max_queue=64,
                         default_deadline_s=0.5) as service:
        future = service.submit({R: 512, C: 512}, {I: frame_array})
        with future.result() as frame:      # releases buffers on exit
            consume(frame.outputs["harris"])
        print(service.stats().render())

The service starts answering immediately with the interpreter backend
while ``gcc`` compiles the native artifact in the background, switches
to native when it is ready, and falls back to the interpreter — counting
every degradation — if the build fails, the artifact cannot be loaded,
or native calls keep erroring.  ``submit`` on a full queue raises
:class:`Overloaded`; frames that miss their deadline fail with
:class:`DeadlineExceeded`.  Under load, compatible queued requests
(same params, same input shapes/dtypes) are coalesced into one batched
native call (at most ``max_batch=``) — late members are dropped
individually, never the whole batch.  Every request carries a lifecycle
:class:`~repro.observe.events.Timeline` (``submitted → dequeued →
coalesced → dispatched → completed | dropped``) mirrored into the
service's event ring, per-stage latencies land in mergeable histograms,
and :meth:`PipelineService.serve_metrics` exposes them over HTTP in
Prometheus text format.  See ``docs/internals.md`` §16–18.

To scale past one process, :class:`ShardedService` serves the same
``submit()``/``Frame`` contract from a fixed-size fleet of spawn-mode
worker processes, each running frames straight off its command pipe:
pixels move through shared-memory slabs (:mod:`repro.serve.shm`),
placement is least-outstanding-work, and a dead worker is respawned
with its in-flight frames requeued once, or failed with
:class:`WorkerCrashed` when they were already requeued (never hung).
See ``docs/internals.md`` §20.

Demo: ``python -m repro.serve --app harris`` (``--workers N`` for the
process-sharded tier).
"""

from repro.serve.deadlines import Deadline, DeadlineExceeded
from repro.serve.fallback import FallbackPolicy
from repro.serve.queue import BoundedQueue, Overloaded, ServiceClosed
from repro.serve.router import ShardedService, WorkerCrashed
from repro.serve.service import (
    STAGES, Frame, PipelineService, ServiceStats,
)

__all__ = [
    "BoundedQueue", "Deadline", "DeadlineExceeded",
    "FallbackPolicy", "Frame", "Overloaded", "PipelineService",
    "STAGES", "ServiceClosed", "ServiceStats", "ShardedService",
    "WorkerCrashed",
]
