"""Assembly of the final execution plan.

`compile_plan` runs the whole middle end — inlining, IR lowering, bounds
checking, grouping, alignment/scaling, storage mapping — and packages the
result as a :class:`PipelinePlan`, the single structure both execution
backends (NumPy interpreter and C code generator) consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from repro.compiler.align_scale import GroupTransforms, compute_group_transforms
from repro.compiler.grouping import Group, GroupingResult, group_pipeline
from repro.compiler.options import CompileOptions
from repro.compiler.storage import (
    FULL, SCRATCH, StorageDecision, classify_storage,
)
from repro.compiler.tiling import group_liveouts
from repro.lang.constructs import Parameter
from repro.observe.trace import Tracer, get_tracer
from repro.pipeline.boundscheck import check_bounds
from repro.pipeline.graph import PipelineGraph, Stage
from repro.pipeline.inline import inline_pipeline
from repro.pipeline.ir import PipelineIR
from repro.poly.interval import IntInterval


@dataclass
class GroupPlan:
    """One group, ready for execution or code generation."""

    group: Group
    ordered_stages: list[Stage]
    liveouts: list[Stage]
    tile_sizes: tuple[int, ...]

    @property
    def is_tiled(self) -> bool:
        return self.group.is_tiled

    @property
    def transforms(self) -> GroupTransforms | None:
        return self.group.transforms

    def tile_space(self, ir: PipelineIR,
                   param_env: Mapping[Hashable, int]
                   ) -> tuple[IntInterval, ...] | None:
        """Hull, per group dimension, of the live-outs' scaled domains."""
        assert self.transforms is not None
        ndim = self.transforms.ndim
        los: list[Fraction | None] = [None] * ndim
        his: list[Fraction | None] = [None] * ndim
        for stage in self.liveouts:
            box = ir[stage].domain.concretize(param_env)
            if box is None:
                continue
            t = self.transforms[stage]
            for d in range(len(box)):
                g = t.dim_map[d]
                scale = t.scales[d]
                lo = scale * box[d].lo
                hi = scale * box[d].hi
                los[g] = lo if los[g] is None else min(los[g], lo)
                his[g] = hi if his[g] is None else max(his[g], hi)
        if any(l is None for l in los):
            return None
        return tuple(IntInterval(math.floor(l), math.ceil(h))
                     for l, h in zip(los, his))

    def tiles(self, ir: PipelineIR, param_env: Mapping[Hashable, int]):
        """Iterate over tile boxes (group coordinates) covering the group."""
        space = self.tile_space(ir, param_env)
        if space is None:
            return
        ndim = len(space)
        ranges = []
        for d in range(ndim):
            tau = self.tile_sizes[d]
            first = space[d].lo // tau
            last = space[d].hi // tau
            ranges.append(range(first, last + 1))

        def rec(d: int, prefix: list[IntInterval]):
            if d == ndim:
                yield tuple(prefix)
                return
            tau = self.tile_sizes[d]
            for t in ranges[d]:
                prefix.append(IntInterval(t * tau, (t + 1) * tau - 1))
                yield from rec(d + 1, prefix)
                prefix.pop()

        yield from rec(0, [])


def _fmt_fraction(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


@dataclass
class PipelinePlan:
    """The complete compiled form of a pipeline."""

    ir: PipelineIR
    grouping: GroupingResult
    group_plans: list[GroupPlan]
    storage: dict[Stage, StorageDecision]
    options: CompileOptions
    estimates: dict[Parameter, int]
    #: original user-facing output stage -> (possibly cloned) plan stage
    output_map: dict[Stage, Stage]
    inlined_names: tuple[str, ...]
    #: populated when compiled with ``check != "none"`` (a
    #: :class:`repro.verify.VerifyReport`)
    verify_report: object | None = None
    #: populated when compiled with ``options.narrow``: stage ->
    #: :class:`repro.analysis.ranges.ValueInterval` derived under the
    #: compile-time estimates
    value_ranges: dict | None = None
    #: populated when compiled with ``options.narrow``: stage -> narrowed
    #: storage :class:`~repro.lang.types.DType` (absent stages keep their
    #: declared type)
    narrowing: dict | None = None
    #: the :class:`~repro.schedule.ScheduleHints` the plan was compiled
    #: under (``None`` for an unhinted compile); audited post hoc by the
    #: RV6xx verify family
    hints: object | None = None
    #: :meth:`_fast_path_report`'s result, derived on first use
    _fast_path: list | None = field(default=None, init=False, repr=False,
                                    compare=False)

    @property
    def outputs(self) -> list[Stage]:
        return list(self.output_map.values())

    def stage_by_name(self, name: str) -> Stage:
        for stage in self.ir.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r}")

    def group_halo_widths(self, gp: GroupPlan) -> tuple[Fraction, ...]:
        """Widest halo per group dimension over the group's stages."""
        if gp.transforms is None:
            return ()
        ndim = gp.transforms.ndim
        widths = [Fraction(0)] * ndim
        for stage in gp.ordered_stages:
            halo = gp.group.halos.get(stage)
            if halo is None:
                continue
            for g, width in enumerate(halo.widths()):
                widths[g] = max(widths[g], width)
        return tuple(widths)

    def _group_line(self, i: int, gp: GroupPlan) -> str:
        if gp.is_tiled:
            tiles = "x".join(str(t) for t in gp.tile_sizes)
            halo = ",".join(_fmt_fraction(w)
                            for w in self.group_halo_widths(gp))
            kind = f"tiled {tiles}, halo {halo or '0'}"
        else:
            kind = "untiled"
        scratch = [s.name for s in gp.ordered_stages
                   if self.storage[s].kind == SCRATCH]
        return (f"  group {i} [{kind}] stages: "
                f"{', '.join(s.name for s in gp.ordered_stages)}"
                + (f" | scratch: {', '.join(scratch)}" if scratch else ""))

    def summary(self) -> str:
        """Human-readable description of groups (with their tile sizes and
        halo widths), storage and inlining."""
        lines = [f"pipeline: {len(self.ir.stages)} stages, "
                 f"{len(self.group_plans)} groups "
                 f"(inlined: {', '.join(self.inlined_names) or 'none'})"]
        for i, gp in enumerate(self.group_plans):
            lines.append(self._group_line(i, gp))
        if self.options.specialize:
            lines.append(self._specialize_line())
        return "\n".join(lines)

    def _fast_path_report(self) -> list:
        """The per-stage :class:`~repro.codegen.opt.StageFastInfo` list
        that :meth:`summary` and :meth:`explain` both render, derived
        once per plan."""
        if self._fast_path is None:
            # imported lazily: codegen.opt depends on pipeline/poly
            # modules that import this module's neighbours
            from repro.codegen.opt import specialization_report
            self._fast_path = specialization_report(self)
        return self._fast_path

    def _specialize_line(self) -> str:
        """One-line fast-path tally for :meth:`summary`."""
        infos = self._fast_path_report()
        n_guarded = sum(1 for fi in infos if fi.guarded)
        n_dropped = sum(fi.n_dropped for fi in infos)
        n_reduced = sum(fi.n_reduced for fi in infos)
        fractions = [fi.interior_fraction for fi in infos
                     if fi.guarded and fi.interior_fraction is not None]
        line = (f"  fast-path: {len(infos)} specialized stages, "
                f"{n_guarded} guarded, {n_dropped} clamps eliminated, "
                f"{n_reduced} divisions reduced")
        if fractions:
            line += (", interior covers "
                     f"{min(fractions) * 100.0:.0f}%+ of guarded domains")
        return line

    def explain(self) -> str:
        """Replay of the compiler's decisions, not just their outcome.

        Shows every merge candidate Algorithm 1 evaluated — with its
        measured relative overlap and accept/reject reason — followed by
        the final groups (as in :meth:`summary`) and each stage's storage
        classification with its justification.
        """
        opt = self.options
        tiles = "x".join(str(t) for t in opt.tile_sizes)
        lines = [f"pipeline: {len(self.ir.stages)} stages, "
                 f"{len(self.group_plans)} groups "
                 f"(inlined: {', '.join(self.inlined_names) or 'none'})",
                 f"options: tiles={tiles} "
                 f"overlap_threshold={opt.overlap_threshold} "
                 f"group={opt.group} tile={opt.tile} "
                 f"tight_overlap={opt.tight_overlap} "
                 f"specialize={opt.specialize} simd={opt.simd}"]
        if self.hints is not None:
            lines.append(f"hints: {self.hints.describe()}")
        lines += ["", "== grouping decisions (Algorithm 1) =="]
        decisions = self.grouping.decisions
        if not decisions:
            lines.append("(no merge candidates were evaluated"
                         + ("" if opt.group else "; grouping disabled")
                         + ")")
        for decision in decisions:
            lines.append(decision.render())
        hinted = [d for d in decisions if d.hinted]
        if hinted:
            n_forced = sum(1 for d in hinted if d.accepted)
            n_forbidden = sum(1 for d in hinted if not d.accepted)
            lines.append(f"({n_forced} merge(s) hint-forced, "
                         f"{n_forbidden} candidate(s) hint-rejected; "
                         f"all other decisions automatic)")
        lines += ["", "== final groups =="]
        for i, gp in enumerate(self.group_plans):
            lines.append(self._group_line(i, gp))
        lines += ["", "== storage =="]
        for gp in self.group_plans:
            for stage in gp.ordered_stages:
                decision = self.storage[stage]
                lines.append(f"  {stage.name}: {decision.kind} "
                             f"({decision.reason})")
        if opt.specialize:
            lines += ["", "== fast-path specialization =="]
            infos = self._fast_path_report()
            if not infos:
                lines.append("(no specializable stages)")
            for fi in infos:
                lines.append(f"  {fi.render()}")
        if self.value_ranges is not None:
            lines += ["", "== value ranges & narrowing =="]
            narrowing = self.narrowing or {}
            for gp in self.group_plans:
                for stage in gp.ordered_stages:
                    r = self.value_ranges.get(stage)
                    if r is None:
                        continue
                    line = f"  {stage.name}: {r!r}"
                    target = narrowing.get(stage)
                    if target is not None:
                        line += (f" -> narrowed {stage.dtype.name} "
                                 f"to {target.name}")
                    lines.append(line)
            if not narrowing:
                lines.append("  (no stage narrowed)")
        return "\n".join(lines)


def compile_plan(outputs: Sequence[Stage],
                 estimates: Mapping[Parameter, int],
                 options: CompileOptions | None = None,
                 tracer: Tracer | None = None,
                 check: str = "none",
                 hints=None) -> PipelinePlan:
    """Run the middle end and produce a :class:`PipelinePlan`.

    ``outputs`` are the live-out stages; ``estimates`` map every parameter
    to a representative value (the generated implementation stays valid
    for all parameter values — estimates only guide the heuristics).
    Every phase is traced on ``tracer`` (the process-global tracer when
    omitted; spans cost nothing while it stays disabled).

    ``check`` runs the static plan verifier (:mod:`repro.verify`) on the
    result: ``"none"`` skips it, ``"warn"`` attaches the report as
    ``plan.verify_report``, ``"strict"`` additionally raises
    :class:`repro.verify.VerifyError` on any error-severity finding.

    ``hints`` is an optional :class:`~repro.schedule.ScheduleHints`:
    ``inline`` restricts the inlining pass to the named stages,
    ``force_group``/``forbid_group`` constrain Algorithm 1's candidate
    enumeration (never its legality checks), and ``tile_override``
    replaces the tile sizes of any group containing an overridden stage.
    The plan records the hints (``plan.hints``) and the RV6xx verify
    family audits that every directive was sound and actually applied.
    """
    if check not in ("none", "warn", "strict"):
        raise ValueError(f"check must be 'none', 'warn' or 'strict', "
                         f"got {check!r}")
    options = options or CompileOptions()
    tracer = tracer if tracer is not None else get_tracer()
    estimates = dict(estimates)
    original_outputs = tuple(outputs)
    if hints is not None and hints.is_empty():
        hints = None

    with tracer.span("compile_plan", cat="compiler") as root:
        with tracer.span("inline", cat="compiler") as sp:
            hint_inline = set(hints.inline) if hints is not None else set()
            inlined = None
            if options.inline or hint_inline:
                # an inline hint restricts the pass to the named stages
                # (and runs it even when options.inline is off)
                only = hint_inline if hint_inline else None
                inlined = inline_pipeline(original_outputs, estimates,
                                          only=only)
                plan_outputs = inlined.outputs
                inlined_names = tuple(s.name for s in inlined.inlined)
            else:
                plan_outputs = original_outputs
                inlined_names = ()
            sp.set(inlined=len(inlined_names))

        with tracer.span("bounds_check", cat="compiler"):
            # one lowering per compile: the plan's IR is inlining's when
            # the pass changed nothing, else it reuses inlining's
            # lowering of every stage and expression that survived as is
            if inlined is not None and not inlined.changed:
                ir = inlined.ir
            else:
                ir = PipelineIR(PipelineGraph(plan_outputs),
                                reuse=inlined.ir if inlined else None)
            graph = ir.graph
            check_bounds(ir, estimates)

        if options.group:
            with tracer.span("grouping", cat="compiler") as sp:
                grouping = group_pipeline(ir, estimates, options.tile_sizes,
                                          options.overlap_threshold,
                                          options.tight_overlap,
                                          hints=hints)
                sp.set(n_groups=len(grouping.groups),
                       merges=sum(1 for d in grouping.decisions
                                  if d.accepted),
                       rejections=sum(1 for d in grouping.decisions
                                      if not d.accepted))
        else:
            with tracer.span("align_scale", cat="compiler"):
                from repro.compiler.tiling import group_halos
                groups = []
                for stage in graph.topological_order():
                    stage_ir = ir[stage]
                    transforms = None
                    if options.tile and not (stage_ir.is_accumulator
                                             or stage_ir.is_self_referential):
                        transforms = compute_group_transforms(ir, [stage],
                                                              stage)
                    group = Group([stage], stage, transforms)
                    if transforms is not None:
                        group.halos = group_halos(ir, transforms, [stage])
                    groups.append(group)
                grouping = GroupingResult(groups, ir)

        if not options.tile:
            # Tiling disabled: demote every group to untiled execution.
            for group in grouping.groups:
                group.transforms = None

        with tracer.span("storage", cat="compiler") as sp:
            storage = classify_storage(ir, grouping)
            sp.set(scratch=sum(1 for d in storage.values()
                               if d.kind == SCRATCH))

        with tracer.span("plan_assembly", cat="compiler"):
            group_plans = []
            for group in grouping.groups:
                ordered = graph.ordered(group.stages)
                liveouts = group_liveouts(ir, group.stages)
                ndim = group.transforms.ndim \
                    if group.transforms is not None else 0
                tile_sizes = tuple(options.tile_size(d)
                                   for d in range(ndim))
                if hints is not None and ndim:
                    # apply a hinted tile override when the group's
                    # members agree on exactly one; conflicting
                    # overrides are left unapplied for RV602 to flag
                    overrides = {hints.tile_for(s.name)
                                 for s in group.stages} - {None}
                    if len(overrides) == 1:
                        ov = overrides.pop()
                        tile_sizes = tuple(ov[d % len(ov)]
                                           for d in range(ndim))
                group_plans.append(GroupPlan(group, ordered, liveouts,
                                             tile_sizes))
        root.set(n_stages=len(ir.stages), n_groups=len(group_plans))

    output_map = dict(zip(original_outputs, plan_outputs))
    plan = PipelinePlan(
        ir=ir,
        grouping=grouping,
        group_plans=group_plans,
        storage=storage,
        options=options,
        estimates=estimates,
        output_map=output_map,
        inlined_names=inlined_names,
        hints=hints,
    )
    if options.narrow:
        # Imported lazily: repro.analysis walks the same IR types.
        from repro.analysis.ranges import analyze_ranges, narrowing_decisions
        with tracer.span("ranges", cat="compiler") as sp:
            plan.value_ranges = analyze_ranges(plan)
            plan.narrowing = narrowing_decisions(plan, plan.value_ranges)
            sp.set(narrowed=len(plan.narrowing))
    if check != "none":
        # Imported lazily: repro.verify depends on this module.
        from repro.verify import CHECKS, VerifyError, verify_plan
        with tracer.span("verify", cat="compiler") as sp:
            # "bounds" is excluded: check_bounds already ran above on the
            # identical IR and estimates (and raised on any violation),
            # so re-running it here could never find anything new.
            report = verify_plan(
                plan, checks=tuple(c for c in CHECKS if c != "bounds"))
            sp.set(errors=len(report.errors),
                   warnings=len(report.warnings))
        plan.verify_report = report
        if check == "strict" and not report.ok:
            raise VerifyError(report)
    return plan
