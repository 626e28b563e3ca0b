"""Point-wise inlining (paper Section 3, front end).

Substitutes the definitions of point-wise producer stages into their
consumers — the paper's example is folding ``Ixx/Ixy/Iyy/det/trace`` of
Harris corner detection away so only the stencil stages remain (compare
Figure 7's scratchpad list).  Inlining a point-wise stage trades a little
redundant computation (its expression is duplicated per consuming access)
for locality and fewer buffers; stencil/sampling stages are never inlined
because the redundancy would multiply with their tap count.

A producer is inlined when all of the following hold:

* it is a point-wise :class:`~repro.lang.function.Function` (not an
  accumulator, not self-referential, not a pipeline output);
* it has a single case;
* under the parameter estimates, every consumer access provably lands
  inside that case's region (so dropping the case condition is safe).

The pass is purely functional: user stage objects are never mutated.
Stages whose definitions change are *cloned*, and every downstream
reference is redirected to the clone.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.lang.constructs import Case, Parameter
from repro.lang.expr import Expr, Reference, TrueCond
from repro.lang.function import Accumulate, Accumulator, Function
from repro.lang.image import Image
from repro.pipeline.graph import PipelineGraph, Stage
from repro.pipeline.ir import PipelineIR, StageIR
from repro.poly.interval import IntInterval, evaluate_access


def rewrite_expr(expr: Expr,
                 on_reference: Callable[[Reference], Expr | None]) -> Expr:
    """Rebuild ``expr`` bottom-up, letting ``on_reference`` replace accesses.

    ``on_reference`` receives a Reference whose arguments have already been
    rewritten; returning ``None`` keeps the reference as-is.  A condition
    tree rewrites the same way through
    ``cond.rebuild(lambda e: rewrite_expr(e, on_reference))``.
    """
    def rewrite(e: Expr) -> Expr:
        node = e.rebuild(rewrite)
        if isinstance(node, Reference):
            replaced = on_reference(node)
            if replaced is not None:
                return replaced
        return node
    return rewrite(expr)


def _single_case_region_covers(ir: PipelineIR, producer_ir: StageIR,
                               estimates: Mapping[Parameter, int]) -> bool:
    """Check every consumer access falls inside the producer's case region."""
    target_case = producer_ir.cases[0]
    target_box = target_case.box.concretize(estimates)
    if target_box is None:
        return False
    if not target_case.split.is_pure_bounds:
        return False
    producer = producer_ir.stage
    for consumer in ir.graph.consumers(producer):
        consumer_ir = ir[consumer]
        envs = []
        if consumer_ir.is_accumulator:
            var_box = consumer_ir.domain.concretize(estimates)
            red_box = consumer_ir.reduction_domain.concretize(estimates)
            if var_box is None or red_box is None:
                return False
            env: dict = dict(estimates)
            env.update(zip(consumer_ir.variables, var_box))
            env.update(zip(consumer_ir.stage.red_variables, red_box))
            envs.append(env)
        else:
            for case in consumer_ir.cases:
                box = case.box.concretize(estimates)
                if box is None:
                    continue
                env = dict(estimates)
                env.update(zip(consumer_ir.variables, box))
                envs.append(env)
        for access in consumer_ir.accesses_to(producer):
            if not access.is_affine:
                return False
            for env in envs:
                try:
                    ranges = [evaluate_access(f, env) for f in access.forms]
                except KeyError:
                    return False
                for rng, dom in zip(ranges, target_box):
                    if not dom.contains(rng):
                        return False
    return True


def find_inlinable(ir: PipelineIR,
                   estimates: Mapping[Parameter, int]) -> set[Stage]:
    """The set of stages that satisfy all inlining criteria."""
    inlinable: set[Stage] = set()
    for stage_ir in ir.ordered():
        if stage_ir.is_accumulator or stage_ir.is_output:
            continue
        if stage_ir.is_self_referential:
            continue
        if not stage_ir.is_pointwise:
            continue
        if len(stage_ir.cases) != 1:
            continue
        if not _single_case_region_covers(ir, stage_ir, estimates):
            continue
        inlinable.add(stage_ir.stage)
    return inlinable


class InlineResult:
    """Outcome of the inlining pass."""

    def __init__(self, outputs: tuple[Stage, ...],
                 replacements: dict[Stage, Stage],
                 inlined: tuple[Stage, ...]):
        #: Live-out stages of the rewritten pipeline (clones where needed).
        self.outputs = outputs
        #: original stage -> surviving (possibly cloned) stage
        self.replacements = replacements
        #: original stages that were folded away
        self.inlined = inlined


def inline_pipeline(outputs, estimates: Mapping[Parameter, int],
                    only: "set[str] | None" = None) -> InlineResult:
    """Run the inlining pass over a pipeline given by its outputs.

    ``only`` restricts inlining to the named stages (used by scheduling
    hints): a stage is folded only when it is *both* named and satisfies
    every inlinability criterion — a hinted stage that fails the
    criteria survives, and the RV606 verify audit reports the unapplied
    hint rather than this pass silently forcing an unsound inline.
    """
    graph = PipelineGraph(outputs)
    ir = PipelineIR(graph)
    inlinable = find_inlinable(ir, estimates)
    if only is not None:
        inlinable = {s for s in inlinable if s.name in only}

    # body of each inlined stage, with upstream rewrites already applied
    bodies: dict[Stage, Expr] = {}
    # surviving original stage -> clone (or itself when unchanged)
    survivors: dict[Stage, Stage] = {}

    def make_rewriter(self_stage: Stage | None, self_clone: Stage | None):
        def on_reference(ref: Reference) -> Expr | None:
            producer = ref.function
            if isinstance(producer, Image):
                return None
            if producer is self_stage and self_clone is not None:
                return Reference(self_clone, ref.args)
            if producer in bodies:
                return bodies[producer].substitute(
                    dict(zip(producer.variables, ref.args)))
            replacement = survivors.get(producer)
            if replacement is not None and replacement is not producer:
                return Reference(replacement, ref.args)
            return None
        return lambda e: rewrite_expr(e, on_reference)

    for stage in graph.topological_order():
        stage_ir = ir[stage]
        if stage in inlinable:
            case = stage.defn[0]
            bodies[stage] = make_rewriter(None, None)(case.expression)
            continue
        if isinstance(stage, Accumulator):
            rewriter = make_rewriter(None, None)
            new_target_args = [rewriter(a) for a in stage.defn.target.args]
            new_value = rewriter(stage.defn.value)
            changed = not (
                all(a is b for a, b in zip(new_target_args,
                                           stage.defn.target.args))
                and new_value is stage.defn.value)
            if not changed:
                survivors[stage] = stage
                continue
            clone = Accumulator(
                redDom=(list(stage.red_variables), list(stage.red_intervals)),
                varDom=(list(stage.variables), list(stage.intervals)),
                typ=stage.dtype, name=stage.name)
            clone.defn = Accumulate(Reference(clone, new_target_args),
                                    new_value, stage.defn.op)
            survivors[stage] = clone
            continue

        # Ordinary function: rewrite all cases; clone if anything changed.
        clone = Function(varDom=(list(stage.variables), list(stage.intervals)),
                         typ=stage.dtype, name=stage.name)
        rewriter = make_rewriter(stage, clone)
        new_cases = []
        changed = False
        for case in stage.defn:
            new_cond = case.condition.rebuild(rewriter)
            new_expr = rewriter(case.expression)
            if new_cond is not case.condition or new_expr is not case.expression:
                changed = True
            new_cases.append(Case(new_cond, new_expr)
                             if not isinstance(new_cond, TrueCond)
                             else Case(TrueCond(), new_expr))
        if not changed:
            survivors[stage] = stage
            continue
        clone.defn = new_cases
        survivors[stage] = clone

    new_outputs = tuple(survivors[out] for out in graph.outputs)
    return InlineResult(new_outputs, survivors, tuple(bodies))

