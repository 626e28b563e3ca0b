"""The per-layer ledger of a traced run.

Every traced run, whatever its workload, measures every layer once in
short probes so that each per-layer metric is a measured number in each
run.  Probes reuse the workloads' own set-up and window code with an
enabled span recorder, plus a few direct calls into public layer
functions (``compute_group_transforms``, ``storage_footprint``,
``NativePipeline.last_stats``, ``service.stats()``,
``ShardedService.transport()``/``shard_stats()``).

Times are medians unless the name says otherwise; compile-side times are
per sweep over the 8 apps.  A probe uses its own compile-cache
directory, so "cold" numbers stay cold when the workload under test has
already built the same kernels.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro import compile_pipeline
from repro.apps import ALL_APPS
from repro.compiler.align_scale import compute_group_transforms
from repro.compiler.storage import storage_footprint

import workloads as wl
from spans import Recorder
from summarize import median_ms

COMPILE_SWEEPS = 3
THREAD = wl.WORKLOADS["serve_thread"]
SHARDED = wl.WORKLOADS["serve_sharded"]

#: tracer span (as grafted by ``workloads.compile_op``) -> ledger metric
COMPILE_PHASES = {
    "lang.spec": "lang.spec_ms",
    "compiler.inline": "pipeline.inline_ms",
    "compiler.bounds_check": "pipeline.bounds_check_ms",
    "compiler.grouping": "compiler.grouping_ms",
    "compiler.align_scale": "compiler.align_scale_ms",
    "compiler.storage": "compiler.storage_ms",
    "compile_pipeline": "compiler.plan_ms",
    "compiler.ranges": "analysis.ranges_ms",
    "compiler.verify": "verify.ms",
    "codegen.cgen": "codegen.cgen_ms",
}


def _timed_calls(fn, seconds: float, min_calls: int = 5) -> list[float]:
    """Latencies of back-to-back calls for about ``seconds``."""
    out = []
    deadline = time.perf_counter() + seconds
    while len(out) < min_calls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _instrumented_calls(timed, values, inputs, seconds: float
                        ) -> list[tuple[float, float]]:
    """(wall seconds, seconds inside the group timers) per call of an
    ``instrument=True`` build."""
    out = []
    deadline = time.perf_counter() + seconds
    while not out or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        timed(values, inputs, n_threads=1)
        wall = time.perf_counter() - t0
        out.append((wall, timed.last_stats.total_seconds))
    return out


def compile_layers(rec: Recorder) -> dict:
    """Phase times per 8-app sweep, and the exact counts."""
    names = sorted(ALL_APPS)
    per_sweep: list[dict] = []
    laplacian_s: list[float] = []
    digests: list[dict] = []
    for _ in range(COMPILE_SWEEPS):
        first = len(rec.spans)
        plans, sources = {}, {}
        for name in names:
            start = len(rec.spans)
            _, compiled, sources[name] = wl.compile_op(name, rec)
            plans[name] = compiled.plan
            if name == "local_laplacian":
                laplacian_s += [s.duration for s in rec.spans[start:]
                                if s.name == "compile_pipeline"]
            # align/scale runs inside grouping; its own cost is measured
            # by solving every final group again through the public call
            with rec.span("compiler.align_scale"):
                for group in compiled.plan.grouping.groups:
                    compute_group_transforms(compiled.plan.ir, group.stages,
                                             group.root)
        sums = dict.fromkeys(COMPILE_PHASES, 0.0)
        for span in rec.spans[first:]:
            if span.name in sums:
                sums[span.name] += span.duration
        per_sweep.append(sums)
        digests.append({n: wl.digest(s) for n, s in sources.items()})
    metrics = {metric: median_ms([sweep[span] for sweep in per_sweep])
               for span, metric in COMPILE_PHASES.items()}
    metrics["compiler.plan_ms.local_laplacian"] = median_ms(laplacian_s)
    metrics["compiler.groups"] = sum(len(p.group_plans)
                                     for p in plans.values())
    metrics["compiler.merge_candidates"] = sum(
        len(p.grouping.decisions) for p in plans.values())
    metrics["codegen.c_bytes"] = sum(len(s.encode())
                                     for s in sources.values())
    metrics["codegen.c_digest_stable"] = int(
        all(d == digests[0] for d in digests))
    metrics["verify.error_diags"] = sum(
        len(p.verify_report.errors) for p in plans.values())
    return metrics


def kernel_layers(rec: Recorder, seed: int, probe_s: float,
                  cache: Path) -> tuple[dict, list]:
    """Cold gcc, warm load, kernel medians against the copy-bandwidth
    floor, call overhead, 2-thread speed-up and the interpreter."""
    metrics: dict = {}
    problems: list = []
    rng = np.random.default_rng(seed)
    copy_gb_s = wl.copy_bandwidth_gb_s()
    metrics["machine.copy_gb_s"] = copy_gb_s
    kernels = {name: wl.build_kernel(name, rng, rec, problems,
                                     cache_dir=str(cache))
               for name in sorted(wl.KERNEL_APPS)}
    natives = [k.native for k in kernels.values()]
    try:
        metrics["codegen.build.gcc_s"] = sum(
            k.native.build_info.compile_s for k in kernels.values())
        warm_s = 0.0
        for name, k in kernels.items():
            fresh = compile_pipeline(k.app.outputs, k.values,
                                     wl.options_for(name), name=name)
            t0 = time.perf_counter()
            with rec.span("codegen.build.warm_load"):
                native = fresh.build(cache_dir=str(cache))
            warm_s += time.perf_counter() - t0
            if not native.build_info.cache_hit:
                problems.append(f"{name}: warm build missed the cache")
        metrics["codegen.build.warm_load_ms"] = warm_s * 1e3
        metrics["kernel.scratch_bytes"] = sum(
            storage_footprint(k.compiled.plan, k.values)["scratch_bytes"]
            for k in kernels.values())
        for name, k in kernels.items():
            with rec.span("kernel." + name + ".probe"):
                ms = median_ms(_timed_calls(
                    lambda k=k: k.native(k.values, k.inputs, n_threads=1),
                    probe_s / 4))
            metrics[f"kernel.{name}.ms_p50"] = ms
            floor_ms = k.compulsory_bytes / (copy_gb_s * 1e9) * 1e3
            metrics[f"kernel.{name}.floor_x"] = ms / floor_ms

        # a 2-thread team starts badly here: for about a second after
        # the switch from 1 thread a call takes 32 ms, then 3.6 ms (both
        # threads seem to share a core until the scheduler moves one),
        # so the team gets the windows' lead-in before it is timed
        b = kernels["bilateral"]

        def two_threads():
            b.native(b.values, b.inputs, n_threads=2)

        _timed_calls(two_threads, wl.LEAD_IN_S)
        two = median_ms(_timed_calls(two_threads, probe_s / 4))
        metrics["kernel.par_speedup_2t"] = \
            metrics["kernel.bilateral.ms_p50"] / two

        h = kernels["harris"]
        with rec.span("runtime.interpreter.probe"), \
                np.errstate(all="ignore"):
            metrics["runtime.interp_ms.harris"] = median_ms(_timed_calls(
                lambda: h.compiled(h.values, h.inputs), 0.0, min_calls=3))

        # per-group timers of an instrumented build; wall minus those
        # timers on the tiny frame is what one call costs around the kernel
        timed = h.compiled.build(instrument=True, cache_dir=str(cache))
        natives.append(timed)
        tiny = wl.param_values(h.app, 128, 128)
        tiny_in = h.app.make_inputs(tiny, rng)
        metrics["kernel.groups_ms.harris"] = median_ms(
            [inside for _, inside in _instrumented_calls(
                timed, h.values, h.inputs, probe_s / 4)])
        metrics["call.overhead_us"] = median_ms(
            [wall - inside for wall, inside in _instrumented_calls(
                timed, tiny, tiny_in, probe_s / 4)]) * 1e3
        for cls, (values, inputs) in (("tiny", (tiny, tiny_in)),
                                      ("small", (h.values, h.inputs))):
            metrics[f"call.{cls}_ms_p50"] = median_ms(_timed_calls(
                lambda: h.native(values, inputs, n_threads=1), probe_s / 4))
    finally:
        for native in natives:
            native.release()
    return metrics, problems


def _stage_ms(rec: Recorder, first: int, name: str) -> float:
    return median_ms([s.duration for s in rec.spans[first:]
                      if s.name == name])


def _period_overhead_us(summary: dict, call_ms: dict) -> float:
    """Service period (1 / ops_per_s) minus what the same frames cost as
    direct native calls, weighted by the traffic actually served."""
    ops = summary["class_ops"]
    direct_ms = sum(n * call_ms[cls] for cls, n in ops.items()) \
        / sum(ops.values())
    return (1e3 / summary["ops_per_s"] - direct_ms) * 1e3


def cold_start_layers(rec: Recorder, seed: int, cache: Path) -> dict:
    """Time to the first interpreter frame and the first native frame of
    a cold service, then of a restart against the now-warm store."""
    app, compiled, values, inputs, _ = wl.harris_frames(seed)
    frame_args = (values["tiny"], inputs["tiny"][0])
    metrics = {}

    def first_native(service, t0: float) -> float:
        deadline = t0 + 120.0
        while time.perf_counter() < deadline:
            with service.run(*frame_args,
                             timeout=wl.FRAME_TIMEOUT_S) as frame:
                if frame.backend == "native":
                    return time.perf_counter() - t0
        raise TimeoutError("service never reached the native backend")

    build_kwargs = {"cache_dir": str(cache), "store": "rw"}
    with rec.span("serve.cold_start"):
        t0 = time.perf_counter()
        service = compiled.serve(backend="auto", build_kwargs=build_kwargs)
        try:
            with service.run(*frame_args, timeout=wl.FRAME_TIMEOUT_S):
                metrics["serve.first_interp_frame_s"] = \
                    time.perf_counter() - t0
            metrics["serve.first_native_frame_s"] = first_native(service, t0)
        finally:
            service.close(drain=False, timeout=10.0)
    with rec.span("serve.warm_restart"):
        t0 = time.perf_counter()
        service = compiled.serve(
            backend="auto", build_kwargs={**build_kwargs, "store": "ro"})
        try:
            metrics["schedule.store.warm_first_native_s"] = \
                first_native(service, t0)
        finally:
            service.close(drain=False, timeout=10.0)
    return metrics


def thread_layers(rec: Recorder, seed: int, probe_s: float,
                  call_ms: dict, work: Path) -> tuple[dict, list]:
    """Lifecycle stages, batching and pool counters of the thread
    service under the serve traffic, and what its event sink costs."""
    metrics: dict = {}
    build_kwargs = {"cache_dir": str(work / "ledger-thread")}
    state = wl.serve_setup(seed, rec, sharded=False,
                           build_kwargs=build_kwargs)
    try:
        first = len(rec.spans)
        window, summary = wl.measure(THREAD, state, probe_s, rec)
        stats = state.service.stats()
        plain = wl.measure(THREAD, state, probe_s,
                           Recorder(False))[1]["ops_per_s"]
    finally:
        wl.serve_close(state)
    problems = state.problems + window.problems
    for stage in ("queue_wait", "batch_wait", "execute"):
        metrics[f"serve.service.{stage}_ms_p50"] = _stage_ms(
            rec, first, f"serve.service.{stage}")
    metrics["serve.tiny.ms_p50"] = summary["class_ms"]["tiny"]
    metrics["serve.small.ms_p50"] = summary["class_ms"]["small"]
    metrics["serve.service.period_overhead_us"] = _period_overhead_us(
        summary, call_ms)
    metrics["serve.service.mean_batch"] = stats.mean_batch_size
    metrics["serve.service.pool_hit_rate"] = stats.pool.get("hit_rate", 0.0)
    metrics["serve.service.native_rate"] = stats.native_rate
    metrics["serve.service.rejected"] = stats.rejected
    metrics["serve.service.timeouts"] = stats.timeouts

    # the cost of looking: the same traffic with the event sink and 1%
    # trace sampling switched on
    observed = wl.serve_setup(
        seed, rec, sharded=False, build_kwargs=build_kwargs,
        events_path=str(work / "ledger-events.jsonl"), sample_rate=0.01)
    try:
        on = wl.measure(THREAD, observed, probe_s,
                        Recorder(False))[1]["ops_per_s"]
    finally:
        wl.serve_close(observed)
    metrics["observe.events_overhead_pct"] = (plain - on) / plain * 100.0
    return metrics, problems + observed.problems


def sharded_layers(rec: Recorder, seed: int, probe_s: float,
                   call_ms: dict, work: Path) -> tuple[dict, list]:
    """Cold spawn, transport and worker stages, placement balance and
    copy / fault counters of the process-sharded tier."""
    metrics: dict = {}
    state = wl.serve_setup(
        seed, rec, sharded=True,
        build_kwargs={"cache_dir": str(work / "ledger-sharded")})
    try:
        first = len(rec.spans)
        window, summary = wl.measure(SHARDED, state, probe_s, rec)
        transport = state.service.transport()
        shards = state.service.shard_stats()
    finally:
        wl.serve_close(state)
    problems = state.problems + window.problems
    metrics["serve.router.spawn_ready_s"] = state.ready_s
    worker_s: dict = {}
    total_s: dict = {}
    for span in rec.spans[first:]:
        if span.name.startswith("serve.worker."):
            worker_s[span.op] = worker_s.get(span.op, 0.0) + span.duration
        elif span.name.startswith("serve.op."):
            total_s[span.op] = span.duration
    metrics["serve.router.transport_ms_p50"] = median_ms(
        [total_s[op] - worker_s[op] for op in total_s if op in worker_s])
    for stage in ("queue_wait", "batch_wait", "execute"):
        metrics[f"serve.worker.{stage}_ms_p50"] = _stage_ms(
            rec, first, f"serve.worker.{stage}")
    metrics["serve.router.period_overhead_us"] = _period_overhead_us(
        summary, call_ms)
    done = [s.completed for s in shards.values()]
    metrics["serve.router.shard_imbalance"] = \
        (max(done) - min(done)) / statistics.mean(done)
    served = sum(done)
    metrics["serve.shm.copies_per_frame"] = \
        (transport["input_copies"] + transport["copied_out"]) / served
    metrics["serve.router.requeued"] = transport["requeued"]
    metrics["serve.router.worker_deaths"] = transport["worker_deaths"]
    return metrics, problems


def ledger(rec: Recorder, seed: int, seconds: float, work: Path):
    """Every per-layer metric the child can measure (the driver adds the
    leak counts), and the correctness problems the probes found."""
    probe_s = max(1.0, seconds / 5.0)
    metrics = compile_layers(rec)
    kernel_metrics, problems = kernel_layers(rec, seed, probe_s,
                                             work / "ledger-kernels")
    metrics |= kernel_metrics
    call_ms = {cls: metrics[f"call.{cls}_ms_p50"]
               for cls in wl.FRAME_CLASSES}
    metrics |= cold_start_layers(rec, seed, work / "ledger-cold")
    for layer_metrics, layer_problems in (
            thread_layers(rec, seed, probe_s, call_ms, work),
            sharded_layers(rec, seed, probe_s, call_ms, work)):
        metrics |= layer_metrics
        problems += layer_problems
    if metrics["codegen.c_digest_stable"] != 1:
        problems.append("generated C differed between ledger sweeps")
    return metrics, problems
