"""Alignment and scaling of stage schedules (paper Section 3.3).

Overlapped tiling of a group is only possible when every intra-group
dependence is captured by (bounded) constant vectors.  Up/down-sampling
accesses such as ``h(x // 2)`` or ``g(2*x - 1)`` produce non-constant
vectors under the initial schedules; scaling each stage's schedule by the
right rational factor restores constancy (Figure 6: ``f: x``, ``g: 2x``,
``h: 4x``, ``f_up: 2x``).  Alignment maps each stage's dimensions onto the
group's canonical dimensions (those of the *root*, the group's sink).

:func:`compute_group_transforms` propagates scales and dimension maps
backwards from the root along intra-group edges.  It returns ``None`` when
the group cannot be aligned/scaled — data-dependent accesses, reflected or
multi-variable indices, or conflicting requirements like the paper's
``f(x) = g(x/2) + g(x/4)`` example — in which case the grouping heuristic
must not merge across the offending edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from repro.lang.constructs import Variable
from repro.pipeline.graph import Stage
from repro.pipeline.ir import PipelineIR
from repro.poly.imap import Schedule, ScheduleDim


@dataclass(frozen=True)
class StageTransform:
    """Placement of one stage in the group's coordinate space.

    ``dim_map[d]`` is the group dimension that stage dimension ``d`` maps
    to; ``scales[d]`` the rational scaling of that dimension.  A stage
    point ``x`` has group coordinate ``scales[d] * x[d]`` along
    ``dim_map[d]``.
    """

    dim_map: tuple[int, ...]
    scales: tuple[Fraction, ...]

    @property
    def ndim(self) -> int:
        return len(self.dim_map)

    def stage_dim(self, group_dim: int) -> int | None:
        for d, g in enumerate(self.dim_map):
            if g == group_dim:
                return d
        return None


class GroupTransforms:
    """Alignment/scaling result for a whole group."""

    def __init__(self, root: Stage, transforms: dict[Stage, StageTransform]):
        self.root = root
        self.transforms = transforms

    def __getitem__(self, stage: Stage) -> StageTransform:
        return self.transforms[stage]

    def __contains__(self, stage: Stage) -> bool:
        return stage in self.transforms

    @property
    def ndim(self) -> int:
        return self.transforms[self.root].ndim

    def scaled_schedule(self, stage: Stage, level: int) -> Schedule:
        """The stage's schedule after alignment and scaling (for display)."""
        t = self.transforms[stage]
        dims: list[ScheduleDim | None] = [None] * t.ndim
        for d, g in enumerate(t.dim_map):
            dims[g] = ScheduleDim(stage.variables[d], t.scales[d])
        assert all(d is not None for d in dims)
        return Schedule(level, tuple(dims))  # type: ignore[arg-type]


def compute_group_transforms(ir: PipelineIR, stages: Iterable[Stage],
                             root: Stage,
                             known: GroupTransforms | None = None
                             ) -> GroupTransforms | None:
    """Align and scale all ``stages`` against the ``root`` stage.

    Walks intra-group edges backwards from the root.  For an access whose
    ``d``-th index is ``floor((a * v + b) / m)`` with consumer variable
    ``v`` of scale ``s_c``, the producer's dimension ``d`` must have scale
    ``s_p = s_c * m / a`` for the dependence along that dimension to be a
    bounded constant.  Conflicting requirements (from different consumers
    or different accesses) make the group infeasible.  The requirements
    come de-duplicated from :meth:`PipelineIR.edge_summary`, so a stencil
    costs one check per distinct ``(v, m / a)`` binding, not one per tap.

    ``known`` carries the transforms of a group with the same root that
    ``stages`` extends, taken over as they are: a stage's transform is
    fixed by its in-group consumers, so when the added stages are
    producers only (Algorithm 1's merge of a group into its child) the
    known transforms stand, and only the edges into the added stages are
    solved — the counterpart of ``group_halos(known=...)``.
    """
    group = set(stages)
    if root not in group:
        raise ValueError("the root stage must be part of the group")

    if known is not None:
        if known.root is not root:
            raise ValueError("known transforms must share the root")
        transforms = dict(known.transforms)
    else:
        root_ir = ir[root]
        if root_ir.is_accumulator or root_ir.is_self_referential:
            return None
        transforms = {root: StageTransform(
            tuple(range(root_ir.ndim)),
            tuple(Fraction(1) for _ in range(root_ir.ndim)))}
    settled = set(transforms)

    # Process consumers before their producers (reverse topological order).
    for consumer in reversed(ir.graph.ordered(group)):
        if consumer not in transforms:
            # Not reachable from the root through in-group consumers: the
            # candidate set is not a well-formed group.
            return None
        producers = [p for p in ir.graph.producers(consumer)
                     if p in group and p not in settled]
        if not producers:
            continue
        consumer_ir = ir[consumer]
        ct = transforms[consumer]
        var_info: dict[int, tuple[int, Fraction]] = {}
        for d, var in enumerate(consumer_ir.variables):
            var_info[id(var)] = (ct.dim_map[d], ct.scales[d])
        for producer in producers:
            producer_ir = ir[producer]
            if producer_ir.is_accumulator or producer_ir.is_self_referential:
                return None
            requirements = ir.edge_summary(producer, consumer).requirements
            if requirements is None:
                return None
            for bindings in requirements:
                dim_map: list[int] = []
                scales: list[Fraction] = []
                for d, binding in enumerate(bindings):
                    if binding is None:
                        # positional fallback: a constant index pins the
                        # producer dim to the consumer's d-th dimension
                        if d >= consumer_ir.ndim:
                            return None
                        dim_map.append(ct.dim_map[d])
                        scales.append(ct.scales[d])
                        continue
                    var, ratio = binding
                    group_dim, consumer_scale = var_info[id(var)]
                    dim_map.append(group_dim)
                    scales.append(consumer_scale * ratio)
                if len(set(dim_map)) != len(dim_map):
                    return None  # two producer dims landing on one group dim
                candidate = StageTransform(tuple(dim_map), tuple(scales))
                existing = transforms.get(producer)
                if existing is None:
                    transforms[producer] = candidate
                elif existing != candidate:
                    return None  # e.g. g(x/2) + g(x/4): conflicting scales

    if len(transforms) != len(group):
        return None
    return GroupTransforms(root, transforms)
