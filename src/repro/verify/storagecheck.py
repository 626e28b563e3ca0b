"""Storage coverage checks (``RV2xx``).

Proves, for a sample of concrete tiles under the compile-time estimates,
that the storage mapping actually covers what the backends touch:

* ``RV201`` — each scratchpad's static allocation (the parametric box the
  C generator sizes at codegen time) contains the stage's per-tile
  evaluation region;
* ``RV202`` — every in-group read lands inside the producer's per-tile
  evaluation region, i.e. reads are covered by writes;
* ``RV203`` — no value consumed outside its group (or a pipeline output)
  is mapped to tile-local scratch.

The per-tile regions are recomputed here from the halos and access forms
with exact rational arithmetic (:mod:`repro.poly` primitives) — the same
quantities the generated C derives with ``cdiv``/``fdiv`` — independent
of ``repro.compiler.tiling.compute_tile_regions``.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping

from repro.compiler.plan import GroupPlan, PipelinePlan
from repro.compiler.storage import SCRATCH
from repro.poly.interval import IntInterval, evaluate_access
from repro.verify.diagnostics import Emitter
from repro.verify.legality import PlanFacts

#: (stage, group_plan) -> static per-dimension scratch extents
ScratchSizeFn = Callable[[object, GroupPlan], tuple[int, ...]]


def _default_scratch_sizes(plan: PipelinePlan) -> ScratchSizeFn:
    """The C generator's own static sizing — the claim under test."""
    from repro.codegen.cgen import CGenerator
    gen = CGenerator(plan)
    return gen._scratch_size


def sample_tiles(space: tuple[IntInterval, ...],
                 tile_sizes: tuple[int, ...]) -> list[tuple[IntInterval, ...]]:
    """First / middle / last tile of the group's tile space (diagonal)."""
    picks: list[list[int]] = []
    for d, ivl in enumerate(space):
        tau = tile_sizes[d]
        first, last = ivl.lo // tau, ivl.hi // tau
        mid = (first + last) // 2
        picks.append(sorted({first, mid, last}))
    n = max(len(p) for p in picks)
    tiles = []
    for k in range(n):
        box = []
        for d, p in enumerate(picks):
            t = p[min(k, len(p) - 1)]
            tau = tile_sizes[d]
            box.append(IntInterval(t * tau, (t + 1) * tau - 1))
        tiles.append(tuple(box))
    return tiles


def _halo_region(plan: PipelinePlan, gp: GroupPlan, stage,
                 tile_box: tuple[IntInterval, ...],
                 dom: tuple[IntInterval, ...]
                 ) -> tuple[IntInterval, ...] | None:
    """The halo-extended region the C backend evaluates for one tile.

    Per stage dimension ``d`` on group dim ``g`` with scale ``s``:
    ``[max(dom_lo, ceil((t_lo - left_g) / s)),
       min(dom_hi, floor((t_hi + right_g) / s))]`` — ``None`` when empty.
    """
    transforms = gp.transforms
    assert transforms is not None
    t = transforms[stage]
    halo = gp.group.halos[stage]
    dims = []
    for d in range(plan.ir[stage].ndim):
        g = t.dim_map[d]
        scale = t.scales[d]
        left, right = halo.left[g], halo.right[g]
        # ceil((t_lo - left) / scale), floor((t_hi + right) / scale) in
        # pure integer arithmetic (all quantities are exact rationals).
        num = (tile_box[g].lo * left.denominator - left.numerator) \
            * scale.denominator
        den = left.denominator * scale.numerator
        lo = -((-num) // den)
        num = (tile_box[g].hi * right.denominator + right.numerator) \
            * scale.denominator
        den = right.denominator * scale.numerator
        hi = num // den
        lo = max(lo, dom[d].lo)
        hi = min(hi, dom[d].hi)
        if lo > hi:
            return None
        dims.append(IntInterval(lo, hi))
    return tuple(dims)


def _owned_region(plan: PipelinePlan, gp: GroupPlan, stage,
                  tile_box: tuple[IntInterval, ...],
                  dom: tuple[IntInterval, ...]
                  ) -> tuple[IntInterval, ...] | None:
    """The sub-region a tile owns (writes to the full buffer)."""
    region = _halo_region(plan, gp, stage, tile_box, dom)
    if region is None:
        return None
    transforms = gp.transforms
    assert transforms is not None
    t = transforms[stage]
    dims = []
    for d in range(plan.ir[stage].ndim):
        g = t.dim_map[d]
        scale = t.scales[d]
        sn, sd = scale.numerator, scale.denominator
        lo = max(region[d].lo, -((-tile_box[g].lo * sd) // sn))
        hi = min(region[d].hi, (tile_box[g].hi * sd) // sn)
        if lo > hi:
            return None
        dims.append(IntInterval(lo, hi))
    return tuple(dims)


def _read_buckets(plan: PipelinePlan, gp: GroupPlan, members: set):
    """Hull buckets of in-group reads, built once per group.

    All taps of one access sharing (variable, coefficient, divisor) per
    producer dimension differ only in their constant; the read hull over
    the bucket is exactly [eval(min-const).lo, eval(max-const).hi]
    (evaluation is monotone in the constant).  This keeps RV202 at two
    access evaluations per bucket per tile instead of one per tap.
    """
    buckets: list = []
    counted = 0
    member_ids = {id(s) for s in members}
    for consumer in gp.ordered_stages:
        consumer_ir = plan.ir[consumer]
        per_pair: dict = {}
        for access in consumer_ir.accesses:
            producer = access.producer
            if id(producer) not in member_ids or producer is consumer:
                continue
            forms = access.forms
            if None in forms:  # non-affine access, nothing to prove here
                continue
            counted += 1
            pair = per_pair.get(id(producer))
            if pair is None:
                pair = per_pair[id(producer)] = (producer, {})
            for d, form in enumerate(forms):
                terms = form.aff.terms
                if len(terms) == 1:  # the overwhelmingly common shape
                    s0, c0 = terms[0]
                    sig = (d, form.divisor, id(s0),
                           c0.numerator, c0.denominator)
                else:
                    sig = (d, form.divisor,
                           tuple((id(s), c.numerator, c.denominator)
                                 for s, c in terms))
                entry = pair[1].get(sig)
                b = form.aff.const
                bn, bd = b.numerator, b.denominator
                if entry is None:
                    pair[1][sig] = [d, form, form, bn, bd, bn, bd]
                else:
                    # cross-multiplied integer compares of the constants
                    if bn * entry[4] < entry[3] * bd:
                        entry[1], entry[3], entry[4] = form, bn, bd
                    if bn * entry[6] > entry[5] * bd:
                        entry[2], entry[5], entry[6] = form, bn, bd
        for producer, sigs in per_pair.values():
            for d, fmin, fmax, *_consts in sigs.values():
                buckets.append((consumer, producer, d, fmin, fmax))
    return buckets, counted


def storage_diagnostics(plan: PipelinePlan, emit: Emitter,
                        checked: dict[str, int],
                        env: Mapping[Hashable, int] | None = None,
                        scratch_sizes: ScratchSizeFn | None = None,
                        facts: PlanFacts | None = None) -> None:
    """Run the ``RV2xx`` checks; ``scratch_sizes`` is injectable so the
    mutation tests can model an under-allocating code generator."""
    env = dict(env if env is not None else plan.estimates)
    if facts is None:
        facts = PlanFacts(plan, env)
    sizes_fn: ScratchSizeFn | None = None

    for stage, decision in plan.storage.items():
        if decision.kind != SCRATCH:
            continue
        group = plan.grouping.group_of(stage)
        members = set(group.stages)
        if plan.ir[stage].is_output:
            emit.emit("RV203",
                      f"pipeline output {stage.name} is mapped to tile-local "
                      "scratch; its values would be discarded",
                      stage=stage.name,
                      hint="outputs must live in full buffers")
        escapees = [c.name for c in plan.ir.graph.consumers(stage)
                    if c not in members]
        if escapees:
            emit.emit("RV203",
                      f"{stage.name} is scratch-mapped but consumed outside "
                      f"its group by {', '.join(sorted(escapees))}",
                      stage=stage.name, related=tuple(sorted(escapees)),
                      hint="a tile-local scratchpad is gone once the tile "
                           "finishes; the consumer would read another "
                           "tile's data or garbage")

    for gi, gp in enumerate(plan.group_plans):
        if not gp.is_tiled:
            continue
        if any(s not in gp.group.halos or s not in gp.transforms
               for s in gp.ordered_stages):
            continue  # RV004 already reported by the legality pass
        space = facts.tile_space(gp)
        if space is None:
            continue
        members = set(gp.ordered_stages)
        liveouts = facts.liveouts(gp)
        # stages evaluated into a (halo-sized) scratchpad by the C backend
        liveout_local = {s for s in liveouts
                         if any(c in members
                                for c in plan.ir.graph.consumers(s))}
        scratch_like = {s for s in gp.ordered_stages
                        if plan.storage[s].kind == SCRATCH
                        or s in liveout_local}
        doms = {s: facts.dom(s) for s in gp.ordered_stages}
        if any(doms[s] is None for s in gp.ordered_stages):
            continue
        buckets, n_accesses = _read_buckets(plan, gp, members)
        # static allocations are tile-independent; size them once
        allocs: dict = {}
        for stage in gp.ordered_stages:
            if stage in scratch_like:
                if sizes_fn is None:
                    sizes_fn = scratch_sizes or _default_scratch_sizes(plan)
                allocs[stage] = sizes_fn(stage, gp)

        for tile_box in sample_tiles(space, gp.tile_sizes):
            checked["tiles"] = checked.get("tiles", 0) + 1
            checked["accesses"] = checked.get("accesses", 0) + n_accesses
            evaluated: dict = {}
            for stage in gp.ordered_stages:
                if stage in scratch_like:
                    evaluated[stage] = _halo_region(plan, gp, stage,
                                                    tile_box, doms[stage])
                else:
                    evaluated[stage] = _owned_region(plan, gp, stage,
                                                     tile_box, doms[stage])

            # RV201: static allocation covers the evaluation region.
            for stage, alloc in allocs.items():
                region = evaluated.get(stage)
                if region is None:
                    continue
                for d, ivl in enumerate(region):
                    checked["scratch_dims"] = \
                        checked.get("scratch_dims", 0) + 1
                    if ivl.size > alloc[d]:
                        emit.emit(
                            "RV201",
                            f"scratchpad of {stage.name} allocates "
                            f"{alloc[d]} cells along dim {d} but tile "
                            f"{tile_box} needs {ivl.size} ({ivl})",
                            stage=stage.name, group=gi,
                            hint="the static size must cover tile + halo "
                                 "after inverse scaling")

            # RV202: every in-group read is covered by producer writes.
            read_envs: dict = {}
            for consumer, producer, d, fmin, fmax in buckets:
                consumer_region = evaluated.get(consumer)
                if consumer_region is None:
                    continue
                read_env = read_envs.get(consumer)
                if read_env is None:
                    read_env = dict(env)
                    read_env.update(zip(plan.ir[consumer].variables,
                                        consumer_region))
                    read_envs[consumer] = read_env
                try:
                    lo_ivl = evaluate_access(fmin, read_env)
                    hi_ivl = (lo_ivl if fmax is fmin
                              else evaluate_access(fmax, read_env))
                except KeyError:
                    continue
                needed = IntInterval(lo_ivl.lo, hi_ivl.hi)
                needed = needed.intersect(doms[producer][d])
                if needed is None:
                    continue
                written = evaluated.get(producer)
                have = None if written is None else written[d]
                if have is None or not have.contains(needed):
                    emit.emit(
                        "RV202",
                        f"{consumer.name} reads {producer.name} "
                        f"dim {d} over {needed} in tile "
                        f"{tile_box}, but the producer only computes "
                        f"{have if have is not None else 'nothing'}",
                        stage=consumer.name,
                        related=(producer.name,), group=gi,
                        hint="the producer's halo/region is too "
                             "small for this access")
