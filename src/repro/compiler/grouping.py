"""Greedy overlap-bounded grouping of pipeline stages (Algorithm 1).

Starting from singleton groups, the heuristic repeatedly merges a group
into its *single* child group when (a) the merged group can be aligned and
scaled so all internal dependences are bounded constants, and (b) the
redundant computation introduced by overlapped tiling — the relative
overlap — stays below the threshold.  Candidates are visited in decreasing
size order (by the parameter estimates).  The loop restarts after every
merge and terminates when no merge applies; since each merge reduces the
number of groups by one, at most ``|S| - 1`` merges occur.

That bounds the merges, not the work: every restart rescans up to ``|S|``
candidates, so the scan is ``O(|S|^2)`` candidate *visits*.  What keeps
it cheap is that a visit is a lookup unless the pair is new — a rejected
(group, child) pair stays rejected until one side changes, so each pair
is *evaluated* once (``len(decisions)`` evaluations in all) — and that an
evaluation costs in proportion to the edges of the merged group: the
per-tap facts come from :meth:`PipelineIR.edge_summary`, the child's
transforms and halos are reused (only the absorbed stages are solved),
and sizes, order and the condensed graph's child sets are maintained
across rounds instead of re-derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import networkx as nx

from repro.compiler.align_scale import GroupTransforms, compute_group_transforms
from repro.compiler.deps import NonConstantDependence
from repro.compiler.tiling import (
    Halo, group_halos, naive_halos, relative_overlap, widest_overlap,
)
from repro.lang.constructs import Parameter
from repro.observe.decisions import DecisionLog, MergeDecision
from repro.pipeline.graph import Stage
from repro.pipeline.ir import PipelineIR


@dataclass(eq=False)
class Group:
    """A set of stages fused together with overlapped tiling.

    ``transforms`` is ``None`` for groups that cannot be tiled (single
    accumulator or self-referential stages); such groups are executed with
    their natural loop structure.  Groups compare and hash by identity: a
    stage is in exactly one, and Algorithm 1 keys its bookkeeping on them.
    """

    stages: list[Stage]
    root: Stage
    transforms: GroupTransforms | None
    halos: dict[Stage, Halo] = field(default_factory=dict)

    @property
    def is_tiled(self) -> bool:
        return self.transforms is not None and len(self.stages) >= 1

    @property
    def name(self) -> str:
        return "+".join(s.name for s in self.stages)

    def __contains__(self, stage: Stage) -> bool:
        return stage in self.stages


class GroupingResult:
    """Outcome of Algorithm 1: groups in a valid execution order.

    ``decisions`` is the structured log of every merge candidate the
    heuristic evaluated (empty when grouping was disabled), the raw data
    behind ``PipelinePlan.explain()``.
    """

    def __init__(self, groups: list[Group], ir: PipelineIR,
                 decisions: list[MergeDecision] | None = None):
        self.groups = groups
        self.ir = ir
        self.decisions: list[MergeDecision] = list(decisions or [])
        self.assignment: dict[Stage, Group] = {}
        for group in groups:
            for stage in group.stages:
                self.assignment[stage] = group

    def group_of(self, stage: Stage) -> Group:
        return self.assignment[stage]

    def summary(self) -> str:
        """One line per group: kind and member stages."""
        lines = []
        for i, group in enumerate(self.groups):
            kind = "tiled" if group.is_tiled and len(group.stages) > 1 else \
                ("single" if group.is_tiled else "untiled")
            lines.append(f"group {i} ({kind}): {group.name}")
        return "\n".join(lines)

    def dot(self) -> str:
        """Graphviz rendering with one cluster per group — the dashed
        boxes of the paper's Figure 8."""
        lines = ["digraph grouping {", "  compound=true;"]
        for i, group in enumerate(self.groups):
            lines.append(f"  subgraph cluster_{i} {{")
            lines.append('    style=dashed;')
            lines.append(f'    label="group {i}";')
            for stage in group.stages:
                lines.append(f'    "{stage.name}";')
            lines.append("  }")
        for img in self.ir.graph.inputs:
            lines.append(f'  "{img.name}" [shape=box];')
        emitted = set()
        from repro.pipeline.graph import stage_references
        for stage in self.ir.graph.stages:
            for ref in stage_references(stage):
                src = ref.function
                key = (id(src), id(stage))
                if key in emitted or src is stage:
                    continue
                emitted.add(key)
                lines.append(f'  "{src.name}" -> "{stage.name}";')
        lines.append("}")
        return "\n".join(lines)


def _is_unmergeable(ir: PipelineIR, stage: Stage) -> bool:
    stage_ir = ir[stage]
    return stage_ir.is_accumulator or stage_ir.is_self_referential


def group_pipeline(ir: PipelineIR, estimates: Mapping[Parameter, int],
                   tile_sizes: Sequence[int],
                   overlap_threshold: float | Fraction,
                   tight_overlap: bool = True,
                   hints=None) -> GroupingResult:
    """Run Algorithm 1 and return the final grouping.

    ``tile_sizes`` is indexed per group dimension (cycled if a group has
    more dimensions).  Every merge candidate the loop evaluates —
    accepted or not, with its overlap cost — is recorded and surfaced on
    the returned :class:`GroupingResult`.

    ``hints`` (a :class:`~repro.schedule.ScheduleHints`) constrains the
    enumeration: merges that would co-locate a ``forbid_group`` pair are
    rejected outright; candidates spanning a ``force_group`` set are
    visited first and exempted from the overlap threshold — but never
    from legality: a hint-forced merge still needs alignment/scaling and
    constant halos, exactly like an automatic one.  Hint-influenced decisions are recorded with
    ``hinted=True``.
    """
    threshold = Fraction(overlap_threshold).limit_denominator(10 ** 6)
    log = DecisionLog()
    if hints is not None and hints.is_empty():
        hints = None
    graph = ir.graph

    groups: list[Group] = []
    assignment: dict[Stage, Group] = {}
    size: dict[Group, int] = {}
    for stage in graph.topological_order():
        transforms = None
        if not _is_unmergeable(ir, stage):
            transforms = compute_group_transforms(ir, [stage], stage)
        group = Group([stage], stage, transforms)
        groups.append(group)
        assignment[stage] = group
        size[group] = ir[stage].size_estimate(estimates)
    # the condensed graph: each group's distinct child groups, kept up to
    # date across merges
    children: dict[Group, set[Group]] = {
        assignment[stage]: {assignment[c] for c in graph.consumers(stage)}
        for stage in assignment}
    # (group, child) pairs already turned down: neither side has changed
    # since, so the verdict (which the log de-duplicates anyway) stands
    rejected: set[tuple[Group, Group]] = set()
    # each merged group's widest halo per dimension (widest_overlap)
    widest: dict[Group, tuple[Fraction, ...]] = {}

    def forced_by_hint(group: Group, child: Group) -> bool:
        return hints is not None and hints.forces_merge(
            (s.name for s in group.stages), (s.name for s in child.stages))

    round_no = 0
    while True:
        round_no += 1
        converged = True
        # candidate groups: exactly one child group
        candidates = [(group, next(iter(children[group])))
                      for group in groups if len(children[group]) == 1]
        # hint-forced candidates first, then decreasing size (Algorithm 1)
        candidates.sort(key=lambda gc: (not forced_by_hint(*gc),
                                        -size[gc[0]]))

        for group, child in candidates:
            if (group, child) in rejected:
                continue
            forced = forced_by_hint(group, child)

            def record(accepted: bool, reason: str, overlap=None,
                       diagnostic=None, hinted=False,
                       _group=group, _child=child):
                if not accepted:
                    rejected.add((_group, _child))
                log.record(MergeDecision(
                    round_no, _group.name, _child.name, size[_group],
                    float(overlap) if overlap is not None else None,
                    float(threshold), accepted, reason,
                    diagnostic=diagnostic, hinted=hinted))

            if hints is not None and hints.forbids_merge(
                    (s.name for s in group.stages),
                    (s.name for s in child.stages)):
                record(False, "merge forbidden by scheduling hint",
                       hinted=True)
                continue
            if any(_is_unmergeable(ir, s) for s in group.stages):
                record(False, "group holds an accumulator or "
                              "self-referential stage", hinted=forced)
                continue
            if any(_is_unmergeable(ir, s) for s in child.stages):
                record(False, "child holds an accumulator or "
                              "self-referential stage", hinted=forced)
                continue
            merged_stages = graph.ordered(group.stages + child.stages)
            # the absorbed stages are producers only, so the child's own
            # transforms (and below, its halos) carry over
            transforms = compute_group_transforms(ir, merged_stages,
                                                  child.root,
                                                  known=child.transforms)
            if transforms is None:
                # cannot make dependence vectors constant; a hint-forced
                # candidate fails here too — hints never bypass legality
                record(False, "alignment/scaling failed: no constant "
                              "dependence vectors",
                       diagnostic="RV003 dependence not constant under "
                                  "any alignment/scaling of the merged "
                                  "group", hinted=forced)
                continue
            try:
                if tight_overlap:
                    halos = group_halos(ir, transforms, merged_stages,
                                        known=child.halos)
                    widths = widest_overlap(
                        (halos[s] for s in merged_stages
                         if s not in child.halos),
                        widest.get(child, ()))
                else:
                    halos = naive_halos(ir, transforms, merged_stages)
                    widths = widest_overlap(halos.values())
            except NonConstantDependence as exc:
                # constant-index dependence over parametric extent
                record(False, "non-constant dependence range over "
                              "parametric extent",
                       diagnostic=f"RV003 {exc}", hinted=forced)
                continue
            overlap = relative_overlap(widths, tile_sizes)
            if overlap >= threshold and not forced:
                # too much redundant computation
                record(False, "relative overlap exceeds threshold",
                       overlap=overlap)
                continue
            if forced:
                record(True, "merge forced by scheduling hint",
                       overlap=overlap, hinted=True)
            else:
                record(True, "overlap within threshold", overlap=overlap)
            merged = Group(merged_stages, child.root, transforms, halos)
            widest[merged] = widths
            groups.remove(group)
            groups.remove(child)
            groups.append(merged)
            for stage in merged_stages:
                assignment[stage] = merged
            size[merged] = size.pop(group) + size.pop(child)
            # `child` was the only child of `group` and (the condensed
            # graph being acyclic) not its parent: the merged group keeps
            # the child's children, and every parent of either now
            # points at it
            del children[group]
            children[merged] = children.pop(child)
            for kids in children.values():
                if group in kids or child in kids:
                    kids -= {group, child}
                    kids.add(merged)
            converged = False
            break
        if converged:
            break

    # Fill halos for groups that never merged.
    halo_fn = group_halos if tight_overlap else naive_halos
    for group in groups:
        if group.transforms is not None and not group.halos:
            group.halos = halo_fn(ir, group.transforms, group.stages)

    return GroupingResult(_execution_order(ir, groups, assignment), ir,
                          decisions=log.decisions)


def _execution_order(ir: PipelineIR, groups: list[Group],
                     assignment: Mapping[Stage, Group]) -> list[Group]:
    """Topologically sort the condensed group graph."""
    condensed = nx.DiGraph()
    for group in groups:
        condensed.add_node(id(group))
    for producer, consumer in ir.graph.edges():
        gp, gc = assignment[producer], assignment[consumer]
        if gp is not gc:
            condensed.add_edge(id(gp), id(gc))
    id_to_group = {id(g): g for g in groups}
    order = list(nx.topological_sort(condensed))
    return [id_to_group[i] for i in order]
