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
reference is redirected to the clone.  Every other stage survives as
the very same object: :meth:`~repro.lang.expr.Expr.rebuild` returns a
node itself when none of its children changed, so a stage counts as
changed only when a reference in it was folded or retargeted, and only
the nodes on the path to such a reference are new.  A pass that folds
nothing returns the original pipeline, and the plan's
:class:`~repro.pipeline.ir.PipelineIR` is built with
``reuse=result.ir``: kept stages, and the unchanged conditions and
index expressions of clones, keep the lowering this pass already did.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.lang.constructs import Case, Parameter
from repro.lang.expr import Expr, Reference
from repro.lang.function import Accumulate, Accumulator, Function
from repro.pipeline.graph import PipelineGraph, Stage
from repro.pipeline.ir import PipelineIR, StageIR
from repro.poly.interval import evaluate_access


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
                 inlined: tuple[Stage, ...], ir: PipelineIR):
        #: Live-out stages of the rewritten pipeline (clones where needed).
        self.outputs = outputs
        #: original stage -> surviving (possibly cloned) stage
        self.replacements = replacements
        #: original stages that were folded away
        self.inlined = inlined
        #: the IR of the *original* pipeline the pass decided on; the
        #: rewritten pipeline's IR reuses its lowering
        #: (``PipelineIR(graph, reuse=result.ir)``)
        self.ir = ir

    @property
    def changed(self) -> bool:
        """False when the pass folded nothing and cloned nothing: the
        rewritten pipeline is the original, stage for stage."""
        return bool(self.inlined) or any(
            new is not old for old, new in self.replacements.items())


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

    def on_reference(ref: Reference) -> Expr | None:
        producer = ref.function
        if producer in bodies:
            return bodies[producer].substitute(
                dict(zip(producer.variables, ref.args)))
        replacement = survivors.get(producer)
        if replacement is not None and replacement is not producer:
            return Reference(replacement, ref.args)
        return None  # an image, an unchanged stage, or a self-reference

    def rewrite(e: Expr) -> Expr:
        return rewrite_expr(e, on_reference)

    for stage in graph.topological_order():
        if stage in inlinable:
            bodies[stage] = rewrite(stage.defn[0].expression)
            continue
        if isinstance(stage, Accumulator):
            target_args = stage.defn.target.args
            new_target_args = [rewrite(a) for a in target_args]
            new_value = rewrite(stage.defn.value)
            if (new_value is stage.defn.value and all(
                    a is b for a, b in zip(new_target_args, target_args))):
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
        new_cases = [(case.condition.rebuild(rewrite),
                      rewrite(case.expression)) for case in stage.defn]
        if all(cond is case.condition and expr is case.expression
               for (cond, expr), case in zip(new_cases, stage.defn)):
            survivors[stage] = stage
            continue
        clone = Function(varDom=(list(stage.variables), list(stage.intervals)),
                         typ=stage.dtype, name=stage.name)
        if stage in graph.self_referential:
            # the clone's own earlier values are the clone's, not the
            # original's
            def own(ref: Reference) -> Expr | None:
                return Reference(clone, ref.args) \
                    if ref.function is stage else None

            def retarget(e: Expr) -> Expr:
                return rewrite_expr(e, own)
            new_cases = [(cond.rebuild(retarget), retarget(expr))
                         for cond, expr in new_cases]
        clone.defn = [Case(cond, expr) for cond, expr in new_cases]
        survivors[stage] = clone

    new_outputs = tuple(survivors[out] for out in graph.outputs)
    return InlineResult(new_outputs, survivors, tuple(bodies), ir)
