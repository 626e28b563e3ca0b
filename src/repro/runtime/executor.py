"""Execution of compiled pipeline plans (interpreter backend).

Runs a :class:`~repro.compiler.plan.PipelinePlan` on concrete parameter
values and input arrays.  Groups execute in dependence order; tiled groups
iterate over overlapped tiles — optionally on a thread pool, tiles being
embarrassingly parallel by construction — evaluating intermediate stages
into tile-local scratchpads and writing each live-out's *owned* sub-region
into its full buffer.  Untiled groups (accumulators, self-referential
stages, and every group when tiling is disabled) are evaluated stage by
stage over full domains.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import ThreadPoolExecutor, wait as _wait_futures
from typing import Hashable, Mapping

import numpy as np

from repro.compiler.plan import GroupPlan, PipelinePlan
from repro.compiler.storage import SCRATCH
from repro.compiler.tiling import compute_tile_regions, stage_tile_region
from repro.lang.constructs import Parameter
from repro.lang.image import Image
from repro.observe.trace import Tracer, get_tracer
from repro.pipeline.graph import Stage
from repro.pipeline.ir import StageIR
from repro.poly.affine import to_affine
from repro.poly.interval import IntInterval
from repro.runtime.buffers import BufferView
from repro.runtime.evaluator import Evaluator


class ExecutionError(RuntimeError):
    """Raised for invalid inputs or unsupported stage shapes."""


# ---------------------------------------------------------------------------
# Process-wide worker pools
# ---------------------------------------------------------------------------
# Tearing a ThreadPoolExecutor down after every tiled group (the old
# ``with`` form) pays thread spawn/join per invocation — measurable on
# small frames and the throughput benchmarks.  Pools are instead created
# once per worker count, reused by every plan execution in the process,
# and drained at interpreter exit.

_pools: dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def get_worker_pool(n_threads: int) -> ThreadPoolExecutor:
    """The shared executor pool for ``n_threads`` workers."""
    if n_threads < 1:
        raise ValueError(f"n_threads must be >= 1, got {n_threads}")
    with _pools_lock:
        pool = _pools.get(n_threads)
        if pool is None:
            pool = _pools[n_threads] = ThreadPoolExecutor(
                max_workers=n_threads,
                thread_name_prefix=f"repro-exec-{n_threads}")
        return pool


def shutdown_worker_pools() -> None:
    """Drain and drop every shared pool (re-created lazily on next use)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_worker_pools)


def check_unknown_keys(plan: PipelinePlan, params: Mapping,
                       inputs: Mapping) -> None:
    """Reject entries that do not belong to this plan.

    ``Parameter`` and ``Image`` hash by identity, so passing the *wrong
    object* with the right name would otherwise be silently ignored (and
    a required key reported missing instead).  The native backend
    (:meth:`repro.codegen.build.NativePipeline.run_batch`) calls this
    too, so both backends reject a foreign key with the same error.
    """
    known_params = set(plan.estimates)
    unknown = [p for p in params if p not in known_params]
    if unknown:
        names = ", ".join(sorted(repr(getattr(p, "name", p))
                                 for p in unknown))
        raise ExecutionError(
            f"unknown parameter(s) in param_values: {names}; the plan's "
            "parameters are: "
            + ", ".join(sorted(p.name for p in known_params)))
    known_images = set(plan.ir.graph.inputs)
    unknown = [img for img in inputs if img not in known_images]
    if unknown:
        names = ", ".join(sorted(repr(getattr(img, "name", img))
                                 for img in unknown))
        raise ExecutionError(
            f"unknown image(s) in inputs: {names}; the plan's inputs "
            "are: " + ", ".join(sorted(i.name for i in known_images)))


def execute_plan(plan: PipelinePlan,
                 param_values: Mapping[Parameter, int],
                 inputs: Mapping[Image, np.ndarray],
                 *, vectorize: bool = True,
                 n_threads: int = 1,
                 tracer: Tracer | None = None,
                 deadline=None,
                 out_pool=None) -> dict[str, np.ndarray]:
    """Run a compiled pipeline; returns output arrays keyed by stage name.

    ``tracer`` (the process-global one when omitted) records per-group
    and per-tile spans plus tile counts, scratch bytes and the
    redundant-compute ratio of each tiled group; all of it is skipped
    while the tracer is disabled.

    ``deadline`` is any object with a ``check(where)`` method (e.g.
    :class:`repro.serve.Deadline`); it is invoked cooperatively at every
    group boundary, between the stages of untiled groups, and at the
    start of every tile, so an expired deadline aborts execution with
    whatever ``check`` raises instead of running the frame to the end.

    ``out_pool`` is a :class:`repro.runtime.buffers.BufferPool`: every
    full-size buffer (outputs, live-out intermediates, accumulators) is
    acquired from it rather than freshly allocated, and every non-output
    buffer is released back before returning — output arrays stay leased
    until the caller releases them.  On an exception *all* acquired
    arrays are released.
    """
    tracer = tracer if tracer is not None else get_tracer()
    params = dict(param_values)
    check_unknown_keys(plan, params, inputs)
    buffers: dict[Hashable, BufferView] = {}
    for image in plan.ir.graph.inputs:
        try:
            array = inputs[image]
        except KeyError:
            raise ExecutionError(
                f"missing input array for image {image.name!r}") from None
        extents = tuple(
            to_affine(e, params_only=True).evaluate_int(params)
            for e in image.extents)
        array = np.asarray(array, dtype=image.dtype.np_dtype)
        if array.shape != extents:
            raise ExecutionError(
                f"input {image.name!r} has shape {array.shape}, "
                f"expected {extents}")
        buffers[image] = BufferView(array, (0,) * array.ndim)

    if out_pool is None:
        alloc = BufferView.allocate
    else:
        acquired: list[np.ndarray] = []

        def alloc(box, dtype, fill=0):
            view = out_pool.acquire_view(box, dtype, fill)
            acquired.append(view.array)
            return view

    try:
        with tracer.span("execute_plan", cat="interp",
                         n_groups=len(plan.group_plans),
                         n_threads=n_threads):
            for gi, group_plan in enumerate(plan.group_plans):
                if deadline is not None:
                    deadline.check(f"group {gi}")
                names = ", ".join(s.name
                                  for s in group_plan.ordered_stages)
                if group_plan.is_tiled:
                    with tracer.span(f"group {gi} [tiled]", cat="interp",
                                     stages=names):
                        _run_tiled_group(plan, group_plan, params, buffers,
                                         vectorize, n_threads, tracer, gi,
                                         alloc=alloc, deadline=deadline)
                else:
                    with tracer.span(f"group {gi} [untiled]", cat="interp",
                                     stages=names):
                        _run_untiled_group(plan, group_plan, params,
                                           buffers, vectorize, alloc=alloc,
                                           deadline=deadline)
    except BaseException:
        if out_pool is not None:
            out_pool.release(*acquired)
        raise

    outputs: dict[str, np.ndarray] = {}
    for original, stage in plan.output_map.items():
        outputs[original.name] = buffers[stage].array
    if out_pool is not None:
        kept = {id(array) for array in outputs.values()}
        out_pool.release(*(a for a in acquired if id(a) not in kept))
    return outputs


def execute_plan_batch(plan: PipelinePlan,
                       param_values: Mapping[Parameter, int],
                       inputs_list,
                       *, vectorize: bool = True,
                       n_threads: int = 1,
                       tracer: Tracer | None = None,
                       deadline=None,
                       out_pool=None) -> list[dict[str, np.ndarray]]:
    """Run a batch of frames sharing one set of parameter values.

    The interpreter has no fixed per-call cost worth amortizing, so this
    is simply ``len(inputs_list)`` sequential :func:`execute_plan` calls
    — it exists as the differential-checking twin of
    :meth:`repro.codegen.build.NativePipeline.run_batch` and obeys the
    same contract: one output dict per frame, in order, byte-identical
    to the single-frame path.  On an exception, outputs of frames that
    already completed are released back to ``out_pool``.
    """
    results: list[dict[str, np.ndarray]] = []
    try:
        for inputs in inputs_list:
            results.append(execute_plan(
                plan, param_values, inputs, vectorize=vectorize,
                n_threads=n_threads, tracer=tracer, deadline=deadline,
                out_pool=out_pool))
    except BaseException:
        if out_pool is not None:
            for outputs in results:
                out_pool.release(*outputs.values())
        raise
    return results


# ---------------------------------------------------------------------------
# Untiled execution
# ---------------------------------------------------------------------------

def _allocate_full(stage_ir: StageIR, params, alloc=None) -> BufferView:
    box = stage_ir.domain.concretize(params)
    if box is None:
        raise ExecutionError(
            f"stage {stage_ir.name!r} has an empty domain under the given "
            "parameters")
    alloc = alloc if alloc is not None else BufferView.allocate
    return alloc(box, stage_ir.stage.dtype.np_dtype)


def _run_untiled_group(plan: PipelinePlan, group_plan: GroupPlan, params,
                       buffers, vectorize: bool, alloc=None,
                       deadline=None) -> None:
    alloc = alloc if alloc is not None else BufferView.allocate
    evaluator = Evaluator(params, buffers, vectorize)
    for stage in group_plan.ordered_stages:
        if deadline is not None:
            deadline.check(f"stage {stage.name}")
        stage_ir = plan.ir[stage]
        if stage_ir.is_accumulator:
            box = stage_ir.domain.concretize(params)
            if box is None:
                raise ExecutionError(
                    f"accumulator {stage_ir.name!r} has an empty domain")
            init = Evaluator.reduction_init(stage_ir.accumulate.op,
                                            stage_ir.stage.dtype.np_dtype)
            view = alloc(box, stage_ir.stage.dtype.np_dtype, init)
            buffers[stage] = view
            evaluator.accumulate(stage_ir, view)
        elif stage_ir.is_self_referential:
            buffers[stage] = _run_self_referential(stage_ir, params,
                                                   buffers, vectorize,
                                                   alloc)
        else:
            view = _allocate_full(stage_ir, params, alloc)
            buffers[stage] = view
            box = stage_ir.domain.concretize(params)
            view.write_region(box, evaluator.stage_values(stage_ir, box))


def _self_loop_dims(stage_ir: StageIR) -> list[int]:
    """Dimensions that must be iterated sequentially for self-references."""
    loop_dims: set[int] = set()
    for access in stage_ir.accesses:
        if access.producer is not stage_ir.stage:
            continue
        for d, form in enumerate(access.forms):
            if form is None:
                raise ExecutionError(
                    f"self-reference of {stage_ir.name!r} must use affine "
                    "indices")
            own = stage_ir.variables[d]
            if (form.divisor != 1 or form.aff.coefficient(own) != 1
                    or form.aff.const != 0 or len(form.aff.terms) != 1):
                loop_dims.add(d)
    return sorted(loop_dims)


def _check_self_access_order(stage_ir: StageIR, loop_dims: list[int]) -> None:
    """Every self-access must read lexicographically earlier points."""
    for access in stage_ir.accesses:
        if access.producer is not stage_ir.stage:
            continue
        offsets = []
        for d in loop_dims:
            form = access.forms[d]
            own = stage_ir.variables[d]
            if form.aff.coefficient(own) != 1 or form.divisor != 1:
                raise ExecutionError(
                    f"unsupported self-access in {stage_ir.name!r}")
            offsets.append(form.aff.const)
        if offsets and offsets[0] == 0 and all(o == 0 for o in offsets):
            continue  # same point: only legal inside other-case guards
        for o in offsets:
            if o < 0:
                break
            if o > 0:
                raise ExecutionError(
                    f"forward self-reference in {stage_ir.name!r} is not "
                    "executable")


def _run_self_referential(stage_ir: StageIR, params, buffers,
                          vectorize: bool, alloc=None) -> BufferView:
    box = stage_ir.domain.concretize(params)
    if box is None:
        raise ExecutionError(
            f"stage {stage_ir.name!r} has an empty domain under the given "
            "parameters")
    alloc = alloc if alloc is not None else BufferView.allocate
    view = alloc(box, stage_ir.stage.dtype.np_dtype)
    local = dict(buffers)
    local[stage_ir.stage] = view
    evaluator = Evaluator(params, local, vectorize)
    loop_dims = _self_loop_dims(stage_ir)
    _check_self_access_order(stage_ir, loop_dims)

    def rec(d_index: int, fixed: dict[int, int]) -> None:
        if d_index == len(loop_dims):
            region = tuple(
                IntInterval(fixed[d], fixed[d]) if d in fixed else box[d]
                for d in range(len(box)))
            view.write_region(region,
                              evaluator.stage_values(stage_ir, region))
            return
        d = loop_dims[d_index]
        for v in range(box[d].lo, box[d].hi + 1):
            fixed[d] = v
            rec(d_index + 1, fixed)
        del fixed[d]

    rec(0, {})
    return view


# ---------------------------------------------------------------------------
# Tiled execution
# ---------------------------------------------------------------------------

def _run_tiled_group(plan: PipelinePlan, group_plan: GroupPlan, params,
                     buffers, vectorize: bool, n_threads: int,
                     tracer: Tracer | None = None, gi: int = 0,
                     alloc=None, deadline=None) -> None:
    ir = plan.ir
    tracer = tracer if tracer is not None else get_tracer()
    transforms = group_plan.transforms
    assert transforms is not None
    liveouts = group_plan.liveouts
    for stage in liveouts:
        buffers[stage] = _allocate_full(ir[stage], params, alloc)

    stage_irs = {s: ir[s] for s in group_plan.ordered_stages}
    domain_boxes = {s: stage_irs[s].domain.concretize(params)
                    for s in group_plan.ordered_stages}
    liveout_set = set(liveouts)
    key = f"interp.group[{gi}]"

    def record_tile(tile_box, regions) -> None:
        """Per-tile metrics: counts, bytes, overlap-vs-owned points."""
        evaluated = 0
        owned_points = 0
        scratch_bytes = 0
        for stage, region in regions.items():
            points = 1
            for ivl in region:
                points *= ivl.size
            evaluated += points
            scratch_bytes += points * stage.dtype.np_dtype.itemsize
            owned = stage_tile_region(transforms[stage],
                                      domain_boxes[stage], tile_box)
            if owned is not None:
                points = 1
                for ivl in owned:
                    points *= ivl.size
                owned_points += points
        tracer.count(f"{key}.tiles")
        tracer.count(f"{key}.evaluated_points", evaluated)
        tracer.count(f"{key}.owned_points", owned_points)
        tracer.count(f"{key}.scratch_bytes", scratch_bytes)

    def run_tile(tile_box) -> None:
        if deadline is not None:
            deadline.check("tile " + "x".join(
                f"{ivl.lo}..{ivl.hi}" for ivl in tile_box))
        regions = compute_tile_regions(
            ir, transforms, group_plan.ordered_stages, liveouts,
            tile_box, params)
        if not regions:
            return
        if not tracer.enabled:  # skip even the label formatting when off
            _tile_body(tile_box, regions)
            return
        with tracer.span(
                "tile", cat="tile",
                tile="x".join(f"{ivl.lo}..{ivl.hi}" for ivl in tile_box)):
            record_tile(tile_box, regions)
            _tile_body(tile_box, regions)

    def _tile_body(tile_box, regions) -> None:
        local: dict[Hashable, BufferView] = dict(buffers)
        evaluator = Evaluator(params, local, vectorize)
        for stage in group_plan.ordered_stages:
            region = regions.get(stage)
            if region is None:
                continue
            stage_ir = stage_irs[stage]
            values = evaluator.stage_values(stage_ir, region)
            scratch = BufferView(values, tuple(ivl.lo for ivl in region))
            local[stage] = scratch
            if stage in liveout_set:
                owned = stage_tile_region(transforms[stage],
                                          domain_boxes[stage], tile_box)
                if owned is None:
                    continue
                clipped = []
                ok = True
                for o, r in zip(owned, region):
                    inter = o.intersect(r)
                    if inter is None:
                        ok = False
                        break
                    clipped.append(inter)
                if not ok:
                    continue
                owned = tuple(clipped)
                buffers[stage].write_region(owned,
                                            scratch.read_region(owned))

    tiles = list(group_plan.tiles(ir, params))
    if n_threads <= 1 or len(tiles) <= 1:
        for tile in tiles:
            run_tile(tile)
    else:
        pool = get_worker_pool(n_threads)
        futures = [pool.submit(run_tile, tile) for tile in tiles]
        try:
            for future in futures:
                future.result()
        finally:
            # A failed tile (e.g. an expired deadline) must not hand
            # control back while sibling tiles are still writing into
            # the shared live-out buffers — the caller may recycle them
            # (execute_plan releases pooled arrays on exception).
            # Cancel what has not started, then wait out the rest.
            for future in futures:
                future.cancel()
            _wait_futures(futures)

    if tracer.enabled:
        # redundant-compute ratio: points evaluated (owned + overlap)
        # over points owned — the overlap overhead of Section 3.4,
        # measured rather than modelled
        counters = tracer.metrics.counters()
        owned = counters.get(f"{key}.owned_points", 0)
        evaluated = counters.get(f"{key}.evaluated_points", 0)
        if owned:
            tracer.gauge(f"{key}.redundancy", evaluated / owned)
