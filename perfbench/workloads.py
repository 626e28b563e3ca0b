"""The four closed-loop workloads, run inside the child process.

Each workload is ``setup(seed, rec) -> state`` (everything up to *ready
for the timed window*: specs, inputs, compile, cold gcc, service start,
warm-up and the reference check), ``window(state, seconds, rec) ->
Window`` (the timed closed loop) and ``close(state)``.  ``rec`` is a
:class:`perfbench.spans.Recorder`; a disabled one makes the run
untraced, and the end-to-end metrics always come from such a run.

The program under test is only ever reached through its public API:
``repro.apps.ALL_APPS``, ``compile_pipeline``, ``CompiledPipeline.
c_source/build/serve``, ``NativePipeline.__call__`` and the service
``submit``/``Frame`` contract.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import CompileOptions, compile_pipeline
from repro.apps import ALL_APPS, bilateral, harris, interpolate, iunsharp
from repro.observe import Tracer

from summarize import summarize

#: default tile sizes per app (group-dimension order), the values the
#: repository's own evaluation uses
TILES = {
    "unsharp": (4, 32, 256), "bilateral": (32, 64, 16),
    "harris": (32, 256), "camera": (32, 256),
    "pyramid_blend": (8, 64, 256), "interpolate": (8, 64, 256),
    "local_laplacian": (64, 256), "iunsharp": (32, 256),
}

#: ``kernel_mix`` apps at 512x512, with the reduced pyramid depth that
#: size divides by; one app per kind of generated code
KERNEL_APPS = {
    "harris": harris.build_pipeline,                       # deep stencil fusion
    "bilateral": bilateral.build_pipeline,                 # grid reduction
    "interpolate": lambda: interpolate.build_pipeline(levels=4),  # pyramid
    "iunsharp": iunsharp.build_pipeline,                   # 8-bit narrowed
}
KERNEL_SIZE = 512

#: served frame classes: name -> edge length; the traffic is 3 tiny
#: frames for every small one, whatever the seed
FRAME_CLASSES = {"tiny": 128, "small": 512}
TRAFFIC_BLOCK = ("tiny", "tiny", "tiny", "small")
IMAGES_PER_CLASS = 4
CLIENTS = 2
IN_FLIGHT = 4

#: one frame in this many is compared bit-for-bit inside the window
CHECK_EVERY = 64

#: seconds a client waits for one frame before counting it failed
FRAME_TIMEOUT_S = 30.0

#: every window runs this much longer than asked and leaves the start
#: out of its metrics: the thread service was seen to run at 3100 then
#: 2400 frames/s in its first 1.5 s against 1950 in the steady state
#: users get, and a CPU that idled through set-up needs about a second
#: to clock up (a fixed Python loop: 50 ms per pass falling to 38 ms)
LEAD_IN_S = 2.0


def options_for(name: str) -> CompileOptions:
    return replace(CompileOptions.optimized(TILES[name]), narrow=True)


#: apps whose reference indexes a LUT / picks a bin from a float: a
#: one-ulp difference upstream legitimately lands in the adjacent bin,
#: so a small share of pixels differs by a bin step
QUANTIZED = {"bilateral", "camera", "local_laplacian"}


def reference_error(name: str, out: np.ndarray, ref: np.ndarray) -> str | None:
    """``None`` when ``out`` matches the hand-written reference, else
    what is wrong.

    Exact apps: every pixel within 1e-4, as in ``tests/apps``.  Quantized
    apps: at most 1% of the pixels off by more than 1e-4 and a mean
    error below 1e-4.  ``tests/apps`` also bounds the largest difference
    by 0.06, which holds for its one 48x40 image but not for seeded
    256x256 ones: over 40 seeds 0.2% of camera's pixels differed, by up
    to 0.16 (mean 5e-6) — several bins of its tone-curve LUT, so most
    likely the gradient-aware demosaic choosing the other interpolation
    direction on a near-tie.  The size of such a difference is bounded
    by the image, not by a constant, so the bound here is on how many
    pixels differ; a garbage value in even one pixel still breaks the
    mean.
    """
    if out.shape != ref.shape:
        return f"{name}: shape {out.shape} != reference {ref.shape}"
    err = np.abs(out.astype(np.float64) - ref.astype(np.float64))
    if not np.all(np.isfinite(err)):
        return f"{name}: non-finite difference from reference"
    if name.split()[0] not in QUANTIZED:
        if err.max() < 1e-4:
            return None
        return f"{name}: max |out - reference| = {err.max():g}"
    flipped = float(np.mean(err > 1e-4))
    if flipped <= 0.01 and err.mean() < 1e-4:
        return None
    return (f"{name}: {flipped:.2%} of pixels differ from the reference, "
            f"mean {err.mean():g}, max {err.max():g}")


def compare_outputs(name: str, out: dict, ref: dict) -> list[str]:
    problems = []
    for key, expected in ref.items():
        if key not in out:
            problems.append(f"{name}: output {key!r} missing")
            continue
        problem = reference_error(name, out[key], expected)
        if problem:
            problems.append(problem)
    return problems


def param_values(app, rows: int, cols: int) -> dict:
    values = dict(app.default_estimates)
    values[app.params["R"]] = rows
    values[app.params["C"]] = cols
    return values


def peak_rss_mb() -> float:
    """Sum of ``VmHWM`` over this process and its live descendants."""
    parent_of = {}
    hwm_kb = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            text = Path("/proc", entry, "status").read_text()
        except OSError:
            continue  # exited between listdir and read
        fields = dict(line.split(":", 1) for line in text.splitlines()
                      if ":" in line)
        parent_of[int(entry)] = int(fields["PPid"])
        if "VmHWM" in fields:
            hwm_kb[int(entry)] = int(fields["VmHWM"].split()[0])
    me = os.getpid()
    total = 0
    for pid in hwm_kb:
        cursor = pid
        while cursor not in (me, 0, 1) and cursor in parent_of:
            cursor = parent_of[cursor]
        if cursor == me:
            total += hwm_kb[pid]
    return total / 1024.0


@dataclass
class Window:
    """What one timed window produced."""

    samples: list          # (class, end_s, latency_s) of successful ops
    t_start: float
    t_end: float
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


# ---------------------------------------------------------------------------
# compile_apps
# ---------------------------------------------------------------------------

#: reduced size at which the paper-size plan is executed by the
#: interpreter for the reference check (compiled plans stay valid for
#: every parameter value); interpolate's 10 levels need 512
CHECK_SIZE = {name: 256 for name in ALL_APPS} | {"interpolate": 512}


def compile_op(name: str, rec):
    """One ``compile_apps`` op: spec -> strict, narrowed compile -> C."""
    op = rec.new_op()
    with rec.span("compile_apps.op", op=op):
        with rec.span("lang.spec"):
            app = ALL_APPS[name]()
        tracer = Tracer(enabled=True) if rec.enabled else None
        epoch = time.perf_counter()
        with rec.span("compile_pipeline") as span_id:
            compiled = compile_pipeline(
                app.outputs, app.default_estimates, options_for(name),
                name=name, check="strict", tracer=tracer)
        if tracer is not None:
            for root in tracer.roots():
                rec.add_tree(root, span_id, op, epoch, prefix="compiler.")
        with rec.span("codegen.cgen"):
            source = compiled.c_source()
    return app, compiled, source


def digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


@dataclass
class CompileState:
    order: list
    digests: dict
    problems: list


def compile_setup(seed: int, rec) -> CompileState:
    rng = np.random.default_rng(seed)
    order = [str(n) for n in rng.permutation(sorted(ALL_APPS))]
    digests, problems = {}, []
    for name in order:
        app, compiled, source = compile_op(name, rec)
        digests[name] = digest(source)
        report = compiled.plan.verify_report
        if report is None or not report.ok:
            problems.append(f"{name}: verifier reported errors")
        size = CHECK_SIZE[name]
        values = param_values(app, size, size)
        inputs = app.make_inputs(values, rng)
        with np.errstate(all="ignore"):
            out = compiled(values, inputs)
        problems += compare_outputs(name, out, app.reference(inputs, values))
    return CompileState(order, digests, problems)


def round_robin(order: list, t_end: float):
    """The single caller's op sequence: ``order`` over and over until
    the clock passes ``t_end``."""
    while True:
        for name in order:
            if time.perf_counter() >= t_end:
                return
            yield name


def compile_window(state: CompileState, seconds: float, rec) -> Window:
    samples, problems = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    t_end = t_start + seconds
    for name in round_robin(state.order, t_end):
        t0 = time.perf_counter()
        attempted += 1
        try:
            _, _, source = compile_op(name, rec)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            failed += 1
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        t1 = time.perf_counter()
        if digest(source) != state.digests[name]:
            failed += 1
            problems.append(f"{name}: generated C changed between sweeps")
            continue
        samples.append((name, t1, t1 - t0))
    return Window(samples, t_start, t_end, attempted, failed, problems,
                  peak_rss_mb())


# ---------------------------------------------------------------------------
# kernel_mix
# ---------------------------------------------------------------------------

def copy_bandwidth_gb_s() -> float:
    """Best of 5 ``np.copyto`` passes over a 64 MB buffer: bytes read
    plus bytes written per second."""
    src = np.ones(64 << 20, dtype=np.uint8)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return 2 * src.nbytes / best / 1e9


@dataclass
class Kernel:
    name: str
    app: object
    compiled: object
    native: object
    values: dict
    inputs: dict
    expected: dict          # validated set-up output, for bit-identity

    @property
    def compulsory_bytes(self) -> int:
        return (sum(a.nbytes for a in self.inputs.values())
                + sum(a.nbytes for a in self.expected.values()))


@dataclass
class KernelState:
    order: list
    kernels: dict
    problems: list
    copy_gb_s: float


def build_kernel(name: str, rng, rec, problems: list, **build_kwargs) -> Kernel:
    """Spec, inputs, compile, native build, warm-up, and both checks
    (native vs reference, native vs interpreter) for one app."""
    with rec.span("lang.spec"):
        app = KERNEL_APPS[name]()
    values = param_values(app, KERNEL_SIZE, KERNEL_SIZE)
    inputs = app.make_inputs(values, rng)
    with rec.span("compile_pipeline"):
        compiled = compile_pipeline(app.outputs, values, options_for(name),
                                    name=name, check="strict")
    with rec.span("codegen.build"):
        native = compiled.build(**build_kwargs)
    for _ in range(3):
        out = native(values, inputs, n_threads=1)
    expected = {k: v.copy() for k, v in out.items()}
    problems += compare_outputs(name, expected, app.reference(inputs, values))
    with rec.span("runtime.interpreter"), np.errstate(all="ignore"):
        interp = compiled(values, inputs)
    problems += compare_outputs(name + " (native vs interpreter)",
                                expected, interp)
    return Kernel(name, app, compiled, native, values, inputs, expected)


def kernel_setup(seed: int, rec) -> KernelState:
    rng = np.random.default_rng(seed)
    copy_gb_s = copy_bandwidth_gb_s()
    order = [str(n) for n in rng.permutation(sorted(KERNEL_APPS))]
    problems: list = []
    kernels = {name: build_kernel(name, rng, rec, problems)
               for name in order}
    return KernelState(order, kernels, problems, copy_gb_s)


def kernel_window(state: KernelState, seconds: float, rec) -> Window:
    samples, problems = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    t_end = t_start + seconds
    for name in round_robin(state.order, t_end):
        k = state.kernels[name]
        t0 = time.perf_counter()
        attempted += 1
        op = rec.new_op()
        try:
            with rec.span("kernel_mix.op", op=op):
                with rec.span("kernel." + name):
                    out = k.native(k.values, k.inputs, n_threads=1)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            failed += 1
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        t1 = time.perf_counter()
        if op % CHECK_EVERY == 0 and not all(
                np.array_equal(out[key], k.expected[key])
                for key in k.expected):
            failed += 1
            problems.append(f"{name}: op {op} differs from the validated "
                            f"set-up output")
            continue
        samples.append((name, t1, t1 - t0))
    return Window(samples, t_start, t_end, attempted, failed, problems,
                  peak_rss_mb())


def kernel_close(state: KernelState) -> None:
    for k in state.kernels.values():
        k.native.release()


# ---------------------------------------------------------------------------
# serve_thread / serve_sharded
# ---------------------------------------------------------------------------

@dataclass
class ServeState:
    service: object
    sharded: bool
    values: dict            # class -> param values
    inputs: dict            # class -> list of input dicts
    expected: dict          # class -> list of validated outputs
    plans: list             # per client: list of (class, image index)
    problems: list
    ready_s: float          # service construction -> native ready


def harris_frames(seed: int):
    """The served pipeline (harris compiled for 512x512) and the seeded
    frames of both classes."""
    app = harris.build_pipeline()
    estimates = param_values(app, FRAME_CLASSES["small"],
                             FRAME_CLASSES["small"])
    compiled = compile_pipeline(app.outputs, estimates,
                                options_for("harris"), name="harris",
                                check="strict")
    rng = np.random.default_rng(seed)
    values = {cls: param_values(app, edge, edge)
              for cls, edge in FRAME_CLASSES.items()}
    inputs = {cls: [app.make_inputs(values[cls], rng)
                    for _ in range(IMAGES_PER_CLASS)]
              for cls in FRAME_CLASSES}
    # per client, a long seeded shuffle of traffic blocks: the seed moves
    # the order, never the 3:1 proportion
    plans = []
    for _ in range(CLIENTS):
        plan = []
        for _ in range(64):
            block = [(cls, int(rng.integers(IMAGES_PER_CLASS)))
                     for cls in TRAFFIC_BLOCK]
            plan += [block[i] for i in rng.permutation(len(block))]
        plans.append(plan)
    return app, compiled, values, inputs, plans


def serve_setup(seed: int, rec, *, sharded: bool, **config) -> ServeState:
    with rec.span("serve.setup.compile"):
        app, compiled, values, inputs, plans = harris_frames(seed)
    problems: list = []
    t0 = time.perf_counter()
    if sharded:
        config.setdefault("processes", 2)
    service = compiled.serve(backend="native", **config)
    try:
        with rec.span("serve.setup.wait_ready"):
            backend = service.wait_ready(120.0)
        ready_s = time.perf_counter() - t0
        if backend != "native":
            problems.append(f"service backend is {backend!r}, not native")
        expected = {}
        with rec.span("serve.setup.validate"):
            for cls in FRAME_CLASSES:
                expected[cls] = []
                for image in inputs[cls]:
                    for _ in range(3):      # warm pools, arenas and slabs
                        with service.run(values[cls], image,
                                         timeout=FRAME_TIMEOUT_S) as frame:
                            out = {k: v.copy()
                                   for k, v in frame.outputs.items()}
                    if frame.backend != "native":
                        problems.append(f"{cls} frame served by "
                                        f"{frame.backend}")
                    expected[cls].append(out)
                    problems += compare_outputs(
                        "harris", out, app.reference(image, values[cls]))
                    problems += compare_outputs(
                        "harris (native vs interpreter)", out,
                        compiled(values[cls], image))
    except BaseException:
        service.close(drain=False, timeout=5.0)
        raise
    return ServeState(service, sharded, values, inputs, expected, plans,
                      problems, ready_s)


#: timeline marks of the thread service / the sharded tier, in order;
#: consecutive pairs become the child spans of one served op
THREAD_MARKS = (("submitted", None),
                ("dequeued", "serve.service.queue_wait"),
                ("dispatched", "serve.service.batch_wait"),
                ("completed", "serve.service.execute"))
SHARDED_MARKS = (("submitted", None),
                 ("shipped", "serve.router.ship"),
                 ("worker_submitted", "serve.router.transport_in"),
                 ("worker_dequeued", "serve.worker.queue_wait"),
                 ("worker_dispatched", "serve.worker.batch_wait"),
                 ("worker_completed", "serve.worker.execute"),
                 ("completed", "serve.router.transport_out"))


def record_frame_spans(rec, frame, marks, t0: float, t1: float,
                       cls: str, op: int) -> None:
    """Turn one frame's public lifecycle timeline into spans under the
    client-side op span (submit call -> result available)."""
    parent = rec.add("serve.op." + cls, t0, t1, None, op)
    stamps = {}
    for event in frame.timeline().events():
        stamps.setdefault(event.kind, event.ts)
    previous = None
    for kind, span_name in marks:
        ts = stamps.get(kind)
        if ts is None:
            return
        if span_name is not None:
            # worker marks are re-anchored on receipt, so clip to the op
            lo, hi = max(previous, t0), min(max(ts, previous), t1)
            rec.add(span_name, lo, max(lo, hi), parent, op)
        previous = ts


def serve_window(state: ServeState, seconds: float, rec) -> Window:
    service = state.service
    marks = SHARDED_MARKS if state.sharded else THREAD_MARKS
    lock = threading.Lock()
    samples, problems = [], []
    counts = {"attempted": 0, "failed": 0}
    t_start = time.perf_counter()
    t_end = t_start + seconds

    def fail(message: str) -> None:
        with lock:
            counts["failed"] += 1
            problems.append(message)

    def finish(entry) -> bool:
        """Wait for the oldest in-flight frame; False stops the client."""
        cls, index, t0, future, done, op = entry
        try:
            frame = future.result(FRAME_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            fail(f"{cls} frame: {type(exc).__name__}: {exc}")
            return not isinstance(exc, TimeoutError)
        t1 = done[0]
        good = frame.backend == "native"
        if good and op % CHECK_EVERY == 0:
            expected = state.expected[cls][index]
            good = all(np.array_equal(frame.outputs[key], expected[key])
                       for key in expected)
        if rec.enabled:
            record_frame_spans(rec, frame, marks, t0, t1, cls, op)
        frame.release()
        if good:
            with lock:
                samples.append((cls, t1, t1 - t0))
        else:
            fail(f"{cls} frame {op}: wrong output or backend "
                 f"{frame.backend}")
        return True

    def client(plan) -> None:
        in_flight: deque = deque()
        position = 0
        alive = True
        while alive and time.perf_counter() < t_end:
            cls, index = plan[position % len(plan)]
            position += 1
            done = [0.0]
            with lock:
                counts["attempted"] += 1
            op = rec.new_op()
            t0 = time.perf_counter()
            try:
                future = service.submit(state.values[cls],
                                        state.inputs[cls][index])
            except Exception as exc:  # noqa: BLE001 - rejected = failed op
                fail(f"{cls} submit: {type(exc).__name__}: {exc}")
                continue
            future.add_done_callback(
                lambda _f, done=done: done.__setitem__(
                    0, time.perf_counter()))
            in_flight.append((cls, index, t0, future, done, op))
            if len(in_flight) >= IN_FLIGHT:
                alive = finish(in_flight.popleft())
        while in_flight:
            entry = in_flight.popleft()
            if alive:
                alive = finish(entry)
            else:
                entry[3].cancel()
                fail(f"{entry[0]} frame abandoned after a timeout")

    threads = [threading.Thread(target=client, args=(plan,),
                                name=f"perfbench-client-{i}")
               for i, plan in enumerate(state.plans)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return Window(samples, t_start, t_end, counts["attempted"],
                  counts["failed"], problems, peak_rss_mb())


def serve_close(state: ServeState) -> None:
    state.service.close(drain=False, timeout=10.0)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: float
    cycle: int              # ops in one class cycle (sweep / traffic block)
    setup: object
    window: object
    close: object
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "compile_apps", 90.0, len(ALL_APPS), compile_setup, compile_window,
        lambda state: None,
        "1 caller compiles all 8 apps at paper size round-robin (spec, "
        "strict narrowed compile, C text; no gcc): the only load where "
        "the compiler layers do all the work"),
    Workload(
        "kernel_mix", 99.0, len(KERNEL_APPS), kernel_setup, kernel_window, kernel_close,
        "1 caller runs 4 native kernels (stencil, reduction, pyramid, "
        "8-bit) at 512x512 on 1 thread: kernel-bound, and its set-up is "
        "mostly cold gcc"),
    Workload(
        "serve_thread", 99.0, len(TRAFFIC_BLOCK),
        lambda seed, rec: serve_setup(seed, rec, sharded=False),
        serve_window, serve_close,
        "2 clients x 4 frames in flight through the thread service, "
        "harris 75% 128x128 / 25% 512x512: overhead-bound, mixed sizes "
        "break coalescing batches"),
    Workload(
        "serve_sharded", 99.0, len(TRAFFIC_BLOCK),
        lambda seed, rec: serve_setup(seed, rec, sharded=True),
        serve_window, serve_close,
        "same traffic through 2 worker processes: the difference from "
        "serve_thread is the slab + pipe + worker hop"),
)}


def measure(workload: Workload, state, seconds: float, rec
            ) -> tuple[Window, dict]:
    """One timed window and its metrics (the lead-in left out)."""
    window = workload.window(state, LEAD_IN_S + seconds, rec)
    return window, summarize(window.samples, window.t_start + LEAD_IN_S,
                             window.t_end, workload.tail_pct, workload.cycle)
