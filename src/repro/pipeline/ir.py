"""Intermediate representation of a pipeline: stages with polyhedral domains.

The front end lowers each DSL stage into a :class:`StageIR` carrying its
parametric domain box, its cases with bound-tightened boxes, and the
classified access functions of every reference — everything the compiler
phases (alignment/scaling, dependence analysis, tiling, grouping, storage)
operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, Union

from repro.lang.constructs import Case, Parameter, Variable
from repro.lang.expr import BoolExpr, Expr, Reference
from repro.lang.function import Accumulate, Accumulator, Function
from repro.lang.image import Image
from repro.pipeline.graph import PipelineGraph, Stage
from repro.poly.affine import AccessForm, analyze_access
from repro.poly.interval import IntInterval, evaluate_access
from repro.poly.iset import ParametricBox, SplitCondition, split_condition

Producer = Union[Stage, Image]


@dataclass(frozen=True)
class AccessInfo:
    """One reference from a stage to a producer, with classified indices.

    ``forms[d]`` is the :class:`AccessForm` of the d-th index, or ``None``
    when that index is data-dependent / non-affine (only affine accesses
    are analysed, per the paper).
    """

    reference: Reference
    producer: Producer
    forms: tuple[AccessForm | None, ...]

    @property
    def is_affine(self) -> bool:
        return all(f is not None for f in self.forms)

    def range_box(self, var_env) -> tuple[IntInterval | None, ...]:
        """Interval range of each index over ``var_env`` (None if unknown)."""
        out = []
        for form in self.forms:
            if form is None:
                out.append(None)
            else:
                out.append(evaluate_access(form, var_env))
        return tuple(out)


@dataclass(frozen=True)
class EdgeSummary:
    """What all accesses of one producer -> consumer edge demand of a
    group, derived once per :class:`PipelineIR` instead of tap by tap.

    ``requirements`` holds the *distinct* alignment demands, in access
    order: per producer dimension either ``None`` (a constant index such
    as the channel read ``d(3, x, y)``) or ``(variable, ratio)`` — the
    index ``floor((a*v + b) / m)`` is driven by consumer variable ``v``
    and needs the producer scale ``scale(v) * ratio`` with
    ``ratio = m / a``.  It is ``None`` when some access cannot give
    constant dependences: non-affine, an index mixing several variables,
    a parametric offset, a non-positive coefficient, or one variable
    driving two producer dimensions.

    ``hulls[d]`` is the hull, at *unit* producer scale, of the dependence
    offsets of every variable-index tap into producer dimension ``d``:
    ``(min(-b/m), max(-b/m + (m-1)/m))``, or ``None`` without such a tap.
    A producer scale is a positive rational, so scaling commutes with the
    hull and the range under any transform is ``scale * hulls[d]``.
    ``const_taps`` lists the distinct constant-index taps as ``(d, form)``
    in access order (their range depends on the consumer's extent, and
    the first unbounded one must be reported with its own provenance).
    ``hulls`` is ``None`` when some access is not affine.
    """

    requirements: tuple[tuple[tuple[Variable, Fraction] | None, ...],
                        ...] | None
    hulls: tuple[tuple[Fraction, Fraction] | None, ...] | None
    const_taps: tuple[tuple[int, AccessForm], ...]


@dataclass(frozen=True)
class CaseIR:
    """One case of a function: condition split + tightened domain box."""

    condition: BoolExpr
    expression: Expr
    split: SplitCondition
    box: ParametricBox


@dataclass
class StageIR:
    """A stage plus everything the optimizer needs to know about it."""

    stage: Stage
    domain: ParametricBox
    cases: tuple[CaseIR, ...]
    accesses: tuple[AccessInfo, ...]
    level: int
    is_output: bool
    is_self_referential: bool
    reduction_domain: ParametricBox | None = None
    accumulate: Accumulate | None = None

    @property
    def name(self) -> str:
        return self.stage.name

    @property
    def ndim(self) -> int:
        return self.stage.ndim

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self.stage.variables)

    @property
    def is_accumulator(self) -> bool:
        return isinstance(self.stage, Accumulator)

    @property
    def is_pointwise(self) -> bool:
        """True when every access reads producers at the stage's own point.

        A stage is point-wise when each of its (affine) accesses maps the
        d-th index to exactly the stage's d-th domain variable with
        coefficient 1 and offset 0 — i.e. value at ``(x, y)`` depends only
        on producer values at ``(x, y)``.
        """
        if self.is_accumulator or self.is_self_referential:
            return False
        own = self.variables
        for access in self.accesses:
            if len(access.forms) != len(own):
                return False
            for d, form in enumerate(access.forms):
                if form is None or not form.is_plain_affine:
                    return False
                aff = form.aff
                if (aff.coefficient(own[d]) != 1 or aff.const != 0
                        or len(aff.terms) != 1):
                    return False
        return True

    def accesses_to(self, producer: Producer) -> list[AccessInfo]:
        return [a for a in self.accesses if a.producer is producer]

    def size_estimate(self, estimates: Mapping[Parameter, int]) -> int:
        return self.domain.size_estimate(estimates)


def _summarize_edge(consumer_ir: StageIR, producer: Stage) -> EdgeSummary:
    accesses = consumer_ir.accesses_to(producer)
    if not all(access.is_affine for access in accesses):
        return EdgeSummary(None, None, ())
    # dicts as ordered sets: distinct entries, first-seen order
    requirements: dict[tuple, None] = {}
    const_taps: dict[tuple[int, AccessForm], None] = {}
    alignable = True
    hulls: list[tuple[Fraction, Fraction] | None] = [None] * producer.ndim
    for access in accesses:
        bindings: list[tuple[Variable, Fraction] | None] = []
        for d, form in enumerate(access.forms):
            aff, m = form.aff, form.divisor
            offset = -aff.const / m
            variables = aff.variables()
            alignable = alignable and not aff.parameters()
            if not variables:
                const_taps[(d, form)] = None
                bindings.append(None)
                continue
            slack = offset + Fraction(m - 1, m)
            hull = hulls[d]
            hulls[d] = (offset, slack) if hull is None else \
                (min(hull[0], offset), max(hull[1], slack))
            coeff = aff.coefficient(variables[0])
            alignable = alignable and len(variables) == 1 and coeff > 0
            bindings.append((variables[0], m / coeff))
        # each producer dim must bind a distinct consumer variable
        bound = [b[0] for b in bindings if b is not None]
        alignable = alignable and len(set(bound)) == len(bound)
        requirements[tuple(bindings)] = None
    return EdgeSummary(tuple(requirements) if alignable else None,
                       tuple(hulls), tuple(const_taps))


def _same(a, b) -> bool:
    """Element-wise identity of two sequences."""
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def lower_stage(stage: Stage, graph: PipelineGraph,
                index_form: Callable[[Expr], AccessForm | None] =
                analyze_access,
                like: StageIR | None = None) -> StageIR:
    """Lower one DSL stage into its IR form.

    ``index_form`` classifies one index expression (a
    :class:`PipelineIR` passes its memo, so each index object is
    analysed once).  ``like`` is an earlier lowering of a stage this
    one was cloned from: when the two have the very same variables and
    intervals, its domain boxes are taken, and so are the split and
    tightened box of every condition object the clone kept.
    """
    same = (like is not None and type(like.stage) is type(stage)
            and _same(like.stage.variables, stage.variables)
            and _same(like.stage.intervals, stage.intervals))
    domain = like.domain if same else ParametricBox.from_intervals(
        stage.variables, stage.intervals)
    cases: list[CaseIR] = []
    reduction_domain = None
    accumulate = None
    if isinstance(stage, Accumulator):
        same = same and _same(like.stage.red_variables, stage.red_variables) \
            and _same(like.stage.red_intervals, stage.red_intervals)
        reduction_domain = like.reduction_domain if same else \
            ParametricBox.from_intervals(stage.red_variables,
                                         stage.red_intervals)
        accumulate = stage.defn
    else:
        # the earlier CaseIRs hold their conditions, so the ids are theirs
        known = {id(c.condition): c for c in like.cases} if same else {}
        for case in stage.defn:
            old = known.get(id(case.condition))
            if old is not None:
                split, box = old.split, old.box
            else:
                split = split_condition(case.condition)
                box = domain.tighten(split.bounds)
            cases.append(CaseIR(case.condition, case.expression, split, box))
    return StageIR(
        stage=stage,
        domain=domain,
        cases=tuple(cases),
        # an accumulator's target is an access only through its argument
        # references: its own cells are written, not read
        accesses=tuple(
            AccessInfo(ref, ref.function,
                       tuple(index_form(arg) for arg in ref.args))
            for ref in graph.references(stage)),
        level=graph.level(stage),
        is_output=graph.is_output(stage),
        is_self_referential=stage in graph.self_referential,
        reduction_domain=reduction_domain,
        accumulate=accumulate,
    )


class PipelineIR:
    """IR of a whole pipeline: the graph plus a :class:`StageIR` per stage.

    ``reuse`` is the IR of an earlier pipeline this one was rewritten
    from (the inlining pass's): a stage it already lowered keeps its
    domain, cases and accesses, and a clone keeps whatever lowering of
    the stage of the same name still applies (see :func:`lower_stage`);
    ``level``, ``is_output`` and ``is_self_referential`` always come
    from ``graph``.  Either way each distinct index expression object
    is analysed once.
    """

    def __init__(self, graph: PipelineGraph,
                 reuse: "PipelineIR | None" = None):
        self.graph = graph
        # id(index expression) -> (the expression, its AccessForm): the
        # pair holds the object, so its id stays its own while keyed
        self._index_forms: dict[int, tuple[Expr, AccessForm | None]] = \
            dict(reuse._index_forms) if reuse is not None else {}
        lowered = reuse.stages if reuse is not None else {}
        by_name = {stage.name: stage_ir for stage, stage_ir in lowered.items()}
        self.stages: dict[Stage, StageIR] = {}
        for stage in graph.stages:
            stage_ir = lowered.get(stage)
            if stage_ir is None:
                stage_ir = lower_stage(stage, graph, self._index_form,
                                       like=by_name.get(stage.name))
            else:
                stage_ir = replace(
                    stage_ir, level=graph.level(stage),
                    is_output=graph.is_output(stage),
                    is_self_referential=stage in graph.self_referential)
            self.stages[stage] = stage_ir
        self._edge_summaries: dict[tuple[Stage, Stage], EdgeSummary] = {}
        self._forms_by_reference: dict[int, AccessInfo] | None = None

    # The id-keyed memos check that an entry's object *is* the one asked
    # about: an IR that crossed a pickle carries the ids of the process
    # that built it.
    def _index_form(self, index: Expr) -> AccessForm | None:
        entry = self._index_forms.get(id(index))
        if entry is None or entry[0] is not index:
            entry = self._index_forms[id(index)] = (index,
                                                    analyze_access(index))
        return entry[1]

    def __getitem__(self, stage: Stage) -> StageIR:
        return self.stages[stage]

    def edge_summary(self, producer: Stage, consumer: Stage) -> EdgeSummary:
        """The (lazily built, then kept) summary of one graph edge."""
        key = (producer, consumer)
        summary = self._edge_summaries.get(key)
        if summary is None:
            summary = self._edge_summaries[key] = _summarize_edge(
                self.stages[consumer], producer)
        return summary

    def access_forms(self, ref: Reference) -> tuple[AccessForm | None, ...]:
        """Classified indices of ``ref``: looked up by identity among the
        references lowering already classified, analysed afresh only for
        a node the IR does not hold."""
        if self._forms_by_reference is None:
            self._forms_by_reference = {
                id(access.reference): access
                for stage_ir in self.stages.values()
                for access in stage_ir.accesses}
        access = self._forms_by_reference.get(id(ref))
        if access is not None and access.reference is ref:
            return access.forms
        return tuple(self._index_form(arg) for arg in ref.args)

    def ordered(self) -> list[StageIR]:
        return [self.stages[s] for s in self.graph.topological_order()]

    def input_domain(self, image: Image) -> ParametricBox:
        synthetic_vars = tuple(Variable(f"_{image.name}{d}")
                               for d in range(image.ndim))
        return ParametricBox.from_extents(synthetic_vars, image.extents)
