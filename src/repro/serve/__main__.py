"""Serving demo: stream frames through a PipelineService from the CLI.

Usage::

    python -m repro.serve [--app harris] [--scale small] [--frames 32]
        [--clients 2] [--workers 0] [--service-threads 2]
        [--deadline-ms 0] [--backend auto] [--threads 1]

Compiles the chosen benchmark app, starts a service (background native
build when a C compiler is present), pushes ``--frames`` frames from
``--clients`` concurrent client threads, and prints the service's stats
report — backend transitions, rejection/timeout counts, latency
percentiles and buffer-pool hit rate.

``--workers N`` (N ≥ 1) serves through the process-sharded tier
instead — N spawn-mode worker processes behind the shared-memory
router — and prints each shard's stats followed by the merged view.
``--workers 0`` (the default) keeps the in-process thread service.
"""

from __future__ import annotations

import argparse
import sys
import threading

from repro import compile_pipeline
from repro.bench.harness import APP_BUILDERS, DEFAULT_TILES, make_instance
from repro.compiler.options import CompileOptions
from repro.serve import Overloaded, PipelineService, ShardedService


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__.split("\n")[0])
    parser.add_argument("--app", default="harris",
                        choices=sorted(APP_BUILDERS))
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "paper"))
    parser.add_argument("--frames", type=int, default=32,
                        help="total frames to submit (default 32)")
    parser.add_argument("--clients", type=int, default=2,
                        help="concurrent client threads (default 2)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes; 0 = in-process thread "
                             "service (default)")
    parser.add_argument("--service-threads", type=int, default=2,
                        help="consumer threads of the thread service "
                             "(default 2; with --workers each worker "
                             "process runs frames on one loop)")
    parser.add_argument("--threads", type=int, default=1,
                        help="execution threads per frame (default 1)")
    parser.add_argument("--deadline-ms", type=float, default=0.0,
                        help="per-frame deadline; 0 disables (default)")
    parser.add_argument("--backend", default="auto",
                        choices=("auto", "interpreter", "native"))
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument("--store", default=None, choices=("ro", "rw"),
                        help="consult the persistent schedule store "
                             "during the native build (rw also "
                             "publishes)")
    parser.add_argument("--store-root", default=None,
                        help="schedule store directory (default: "
                             "<cache root>/schedules)")
    args = parser.parse_args(argv)

    instance = make_instance(args.app, args.scale)
    options = CompileOptions.optimized(DEFAULT_TILES[args.app])
    compiled = compile_pipeline(instance.app.outputs, instance.values,
                                options, name=args.app)
    deadline_s = args.deadline_ms / 1000.0 if args.deadline_ms > 0 else None
    tier = f"{args.workers} worker processes" if args.workers \
        else "thread service"
    print(f"serving {args.app} at {args.scale} scale "
          f"({args.clients} clients x {args.frames} frames, "
          f"backend={args.backend}, {tier})")

    per_client = max(1, args.frames // args.clients)
    errors: list[str] = []

    build_kwargs = {}
    if args.store:
        build_kwargs["store"] = args.store
    if args.store_root:
        build_kwargs["store_root"] = args.store_root

    if args.workers:
        service = ShardedService(
            compiled, workers=args.workers, max_queue=args.max_queue,
            backend=args.backend, default_deadline_s=deadline_s,
            n_threads=args.threads, build_kwargs=build_kwargs or None)
    else:
        service = PipelineService(
            compiled, workers=args.service_threads,
            max_queue=args.max_queue, backend=args.backend,
            default_deadline_s=deadline_s, n_threads=args.threads,
            build_kwargs=build_kwargs or None)

    with service:

        def client(k: int) -> None:
            for i in range(per_client):
                try:
                    future = service.submit(instance.values,
                                            instance.inputs)
                except Overloaded:
                    continue  # counted by the service as a rejection
                try:
                    with future.result() as frame:
                        _ = frame.outputs  # consume, then recycle
                except Exception as exc:  # timeouts land here too
                    errors.append(f"client {k} frame {i}: "
                                  f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(args.clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if args.workers:
            for index, stats in service.shard_stats().items():
                print(f"--- shard {index} ---")
                print(stats.render())
            print("--- merged ---")
        print(service.stats().render())

    if errors:
        shown = "\n  ".join(errors[:5])
        print(f"{len(errors)} frame error(s):\n  {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
