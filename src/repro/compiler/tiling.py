"""Overlapped tiling for heterogeneous stage groups (paper Section 3.4).

Two views of the same analysis live here:

* **Model view** — :func:`group_halos` propagates dependence ranges
  backwards from the group's live-outs, yielding each stage's halo (the
  extension beyond the tile it must compute).  This is the *tight*,
  per-level tile shape of Figure 6; :func:`naive_halos` implements the
  over-approximation that assumes every dependence occurs at every level,
  for comparison.  :func:`estimate_relative_overlap` turns halos into the
  redundancy fraction Algorithm 1 thresholds, and
  :func:`tile_shape_slopes` exposes the bounding hyperplane slopes
  (phi_l / phi_r) and the overlap ``o = h * (|l| + |r|)``.

* **Exact view** — :func:`compute_tile_regions` computes, for a concrete
  tile, the exact box each stage must be evaluated over, by pushing
  intervals through the access functions in reverse topological order.
  Both execution backends consume this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from repro.compiler.align_scale import GroupTransforms
from repro.compiler.deps import DepRange, EdgeDependence, edge_dependences
from repro.pipeline.graph import Stage
from repro.pipeline.ir import PipelineIR, StageIR
from repro.poly.interval import IntInterval, evaluate_access


@dataclass(frozen=True)
class Halo:
    """Per-dimension (left, right) extension in group coordinates."""

    left: tuple[Fraction, ...]
    right: tuple[Fraction, ...]
    # computed once per halo: Algorithm 1's overlap estimate and the
    # plan's per-group halo widths both read it
    _widths: tuple[Fraction, ...] = field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_widths", tuple(
            max(Fraction(0), l + r) for l, r in zip(self.left, self.right)))

    def widths(self) -> tuple[Fraction, ...]:
        """Overlap width per dimension (never negative)."""
        return self._widths


def group_liveouts(ir: PipelineIR, stages: Iterable[Stage]) -> list[Stage]:
    """Stages whose values are needed outside the group, in topological
    order (so the order never depends on how the stage set hashes)."""
    group = set(stages)
    return [stage for stage in ir.graph.ordered(group)
            if ir[stage].is_output or any(c not in group
                                          for c in ir.graph.consumers(stage))]


def group_halos(ir: PipelineIR, transforms: GroupTransforms,
                stages: Iterable[Stage],
                known: Mapping[Stage, Halo] | None = None
                ) -> dict[Stage, Halo]:
    """Tight per-stage halos via backward dependence propagation.

    Live-out stages start with a zero halo (they own exactly the tile);
    every producer extends its consumers' halos by the consumer's
    dependence range.  This examines dependences level by level, in
    isolation — the tight construction of Section 3.4 — rather than
    assuming a uniform dependence cone.

    ``known`` carries halos that are already settled and are taken over
    as they are: a stage's halo depends only on its in-group consumers,
    so when a group absorbs stages that are producers only (Algorithm
    1's merge into a child group, same root), the halos of the stages it
    had before are unchanged and only the absorbed ones are propagated.
    """
    group = set(stages)
    ndim = transforms.ndim
    zero = (Fraction(0),) * ndim
    halos: dict[Stage, Halo] = dict(known or ())

    for stage in reversed(ir.graph.ordered(group)):
        if stage in halos:
            continue
        stage_ir = ir[stage]
        left = list(zero)
        right = list(zero)
        seeded = stage_ir.is_output
        for consumer in ir.graph.consumers(stage):
            if consumer not in group:
                seeded = True  # a live-out: it owns exactly the tile
                continue
            consumer_halo = halos[consumer]
            dep = edge_dependences(ir, transforms, stage, consumer)
            seeded = True
            for g in range(ndim):
                rng = dep.ranges[g]
                left[g] = max(left[g], consumer_halo.left[g] + rng.hi)
                right[g] = max(right[g], consumer_halo.right[g] - rng.lo)
        # a stage unreachable from the live-outs contributes nothing
        halos[stage] = Halo(tuple(left), tuple(right)) if seeded \
            else Halo(zero, zero)
    return halos


def naive_halos(ir: PipelineIR, transforms: GroupTransforms,
                stages: Iterable[Stage]) -> dict[Stage, Halo]:
    """Over-approximated halos: every dependence assumed at every level.

    This is the naive cone of Figure 6 — the maximum dependence range of
    the whole group is applied at each level below the live-outs,
    regardless of which edges actually exist there.
    """
    group = set(stages)
    order = ir.graph.ordered(group)
    ndim = transforms.ndim
    max_hi = [Fraction(0)] * ndim
    max_lo = [Fraction(0)] * ndim
    for consumer in order:
        for producer in ir.graph.producers(consumer):
            if producer not in group:
                continue
            dep = edge_dependences(ir, transforms, producer, consumer)
            for g in range(ndim):
                max_hi[g] = max(max_hi[g], dep.ranges[g].hi)
                max_lo[g] = min(max_lo[g], dep.ranges[g].lo)

    levels = {s: ir[s].level for s in order}
    top = max(levels.values())
    halos = {}
    for stage in order:
        depth = top - levels[stage]
        halos[stage] = Halo(
            tuple(depth * h for h in max_hi),
            tuple(depth * -l for l in max_lo))
    return halos


def widest_overlap(halos: Iterable[Halo],
                   widest: Sequence[Fraction] = ()) -> tuple[Fraction, ...]:
    """Widest overlap width per dimension over ``halos``, continuing
    from ``widest`` (the result for halos already seen)."""
    widest = tuple(widest)
    for halo in halos:
        widths = halo.widths()
        widest = tuple(map(max, widest, widths)) if widest else widths
    return widest


def relative_overlap(widest: Sequence[Fraction],
                     tile_sizes: Sequence[int]) -> Fraction:
    """The widest overlap's largest ratio to the tile size."""
    return max((width / tile_sizes[d % len(tile_sizes)]
                for d, width in enumerate(widest)), default=Fraction(0))


def estimate_relative_overlap(halos: Mapping[Stage, Halo],
                              tile_sizes: Sequence[int]) -> Fraction:
    """Redundant-computation fraction used by Algorithm 1's threshold.

    The overlap width along a dimension is independent of the tile size
    (it is fixed by the slopes and the group depth); the *relative*
    overlap is its ratio to the tile size, maximised over stages and
    dimensions.  (Algorithm 1 keeps each group's :func:`widest_overlap`
    and extends it by the absorbed stages' halos only.)
    """
    return relative_overlap(widest_overlap(halos.values()), tile_sizes)


@dataclass(frozen=True)
class TileShape:
    """Bounding hyperplane slopes and overlap of one tiled dimension.

    ``left_slope``/``right_slope`` are the per-level slopes of phi_l and
    phi_r; ``overlap`` is ``h * (|l| + |r|)`` from Section 3.4.
    """

    left_slope: Fraction
    right_slope: Fraction
    height: int

    @property
    def overlap(self) -> Fraction:
        return self.height * (abs(self.left_slope) + abs(self.right_slope))


def tile_shape_slopes(ir: PipelineIR, transforms: GroupTransforms,
                      stages: Iterable[Stage]) -> tuple[TileShape, ...]:
    """Tight phi_l / phi_r slopes per group dimension.

    For phi_l only dependences with non-negative components matter; for
    phi_r only non-positive ones.  Slopes are normalised by the level gap
    the dependence spans, giving the tightest valid cone.
    """
    group = set(stages)
    order = ir.graph.ordered(group)
    ndim = transforms.ndim
    left = [Fraction(0)] * ndim
    right = [Fraction(0)] * ndim
    levels = {s: ir[s].level for s in order}
    height = max(levels.values()) - min(levels.values()) if order else 0
    for consumer in order:
        for producer in ir.graph.producers(consumer):
            if producer not in group:
                continue
            gap = max(1, levels[consumer] - levels[producer])
            dep = edge_dependences(ir, transforms, producer, consumer)
            for g in range(ndim):
                rng = dep.ranges[g]
                if rng.hi > 0:
                    left[g] = max(left[g], rng.hi / gap)
                if rng.lo < 0:
                    right[g] = max(right[g], -rng.lo / gap)
    return tuple(TileShape(left[g], right[g], height) for g in range(ndim))


# ---------------------------------------------------------------------------
# Exact per-tile regions
# ---------------------------------------------------------------------------

def stage_tile_region(transform, stage_box: tuple[IntInterval, ...],
                      tile_box: tuple[IntInterval, ...]
                      ) -> tuple[IntInterval, ...] | None:
    """Stage-coordinate region a stage *owns* within a group tile.

    A stage point ``x`` is owned by the tile whose group-coordinate range
    contains ``scale * x`` (exact rational comparison), intersected with
    the stage's domain box.
    """
    dims = []
    for d in range(len(stage_box)):
        g = transform.dim_map[d]
        scale = transform.scales[d]
        t = tile_box[g]
        lo = math.ceil(Fraction(t.lo) / scale)
        hi = math.floor(Fraction(t.hi) / scale)
        if lo > hi:
            return None
        owned = IntInterval(lo, hi).intersect(stage_box[d])
        if owned is None:
            return None
        dims.append(owned)
    return tuple(dims)


def compute_tile_regions(ir: PipelineIR, transforms: GroupTransforms,
                         ordered_stages: Sequence[Stage],
                         liveouts: Iterable[Stage],
                         tile_box: tuple[IntInterval, ...],
                         param_env: Mapping[Hashable, int]
                         ) -> dict[Stage, tuple[IntInterval, ...]]:
    """Exact evaluation region of every stage for one tile.

    Walking the group in reverse topological order: live-outs need their
    owned region; producers need the union (hull) of what their in-group
    consumers read, clamped to their own domain.  Stages with nothing to
    compute for this tile are absent from the result.
    """
    group = set(ordered_stages)
    liveout_set = set(liveouts)
    regions: dict[Stage, tuple[IntInterval, ...]] = {}

    for stage in reversed(list(ordered_stages)):
        stage_ir = ir[stage]
        stage_box = stage_ir.domain.concretize(param_env)
        if stage_box is None:
            continue
        required: tuple[IntInterval, ...] | None = None
        if stage in liveout_set:
            required = stage_tile_region(transforms[stage], stage_box, tile_box)
        for consumer in ir.graph.consumers(stage):
            if consumer not in group or consumer not in regions:
                continue
            consumer_ir = ir[consumer]
            consumer_region = regions[consumer]
            env: dict[Hashable, IntInterval | int] = dict(param_env)
            env.update(zip(consumer_ir.variables, consumer_region))
            for access in consumer_ir.accesses_to(stage):
                needed = []
                ok = True
                for d, form in enumerate(access.forms):
                    assert form is not None
                    rng = evaluate_access(form, env)
                    clamped = rng.intersect(stage_box[d])
                    if clamped is None:
                        ok = False
                        break
                    needed.append(clamped)
                if not ok:
                    continue
                box = tuple(needed)
                required = box if required is None else tuple(
                    a.hull(b) for a, b in zip(required, box))
        if required is not None:
            regions[stage] = required
    return regions
