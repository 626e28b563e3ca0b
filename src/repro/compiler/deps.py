"""Dependence analysis in the scaled group space (paper Sections 3.1, 3.3).

Once a group's stages are aligned and scaled, every intra-group data
dependence along a group dimension is a *bounded constant* range of
rational offsets.  For a consumer access ``floor((a*v + b) / m)`` into a
producer dimension with scales ``s_c`` (consumer) and
``s_p = s_c * m / a`` (producer), the dependence offset — consume-time
coordinate minus produce-time coordinate — lies in::

    [-s_p * b / m,  -s_p * b / m + s_p * (m - 1) / m]

A plain stencil tap (``a = m = 1``) gives the classic constant vector
``-b``; sampling accesses give narrow ranges from the floor's slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from repro.compiler.align_scale import GroupTransforms
from repro.pipeline.graph import Stage
from repro.pipeline.ir import PipelineIR


@dataclass(frozen=True)
class DepRange:
    """Closed rational interval of dependence offsets along one dimension."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty dependence range")

    def hull(self, other: "DepRange") -> "DepRange":
        return DepRange(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


ZERO_DEP = DepRange(Fraction(0), Fraction(0))


@dataclass(frozen=True)
class EdgeDependence:
    """All dependences from ``producer`` to ``consumer``, per group dim."""

    producer: Stage
    consumer: Stage
    ranges: tuple[DepRange, ...]

    @property
    def max_reach(self) -> Fraction:
        return max(max(abs(r.lo), abs(r.hi)) for r in self.ranges)


class NonConstantDependence(ValueError):
    """A dependence range could not be bounded (infeasible grouping).

    Carries full provenance — producer/consumer stage names, the group
    dimension and the offending access — so callers (the grouping
    heuristic's decision log, :mod:`repro.verify`) can render it as a
    structured diagnostic instead of a bare message.
    """

    def __init__(self, detail: str, *, producer: str | None = None,
                 consumer: str | None = None, dim: int | None = None,
                 access: str | None = None):
        self.detail = detail
        self.producer = producer
        self.consumer = consumer
        self.dim = dim
        self.access = access
        super().__init__(self._compose())

    def _compose(self) -> str:
        parts = []
        if self.producer is not None and self.consumer is not None:
            parts.append(f"{self.consumer} -> {self.producer}")
        if self.dim is not None:
            parts.append(f"dim {self.dim}")
        if self.access is not None:
            parts.append(f"access {self.access}")
        prefix = f"[{', '.join(parts)}] " if parts else ""
        return prefix + self.detail

    def with_context(self, *, producer: str | None = None,
                     consumer: str | None = None, dim: int | None = None,
                     access: str | None = None) -> "NonConstantDependence":
        """A copy enriched with whatever context the caller knows."""
        return NonConstantDependence(
            self.detail,
            producer=self.producer if self.producer is not None else producer,
            consumer=self.consumer if self.consumer is not None else consumer,
            dim=self.dim if self.dim is not None else dim,
            access=self.access if self.access is not None else access)


def _consumer_dim_for(consumer_ir, ct, group_dim: int) -> int:
    for j in range(consumer_ir.ndim):
        if ct.dim_map[j] == group_dim:
            return j
    raise NonConstantDependence(
        f"no consumer dimension of {consumer_ir.name!r} maps to group "
        f"dimension {group_dim}", consumer=consumer_ir.name)


def _constant_extent(consumer_ir, dim: int) -> tuple[Fraction, Fraction]:
    bounds = consumer_ir.domain.bounds[dim]
    values_lo, values_hi = [], []
    for aff in bounds.lowers:
        if not aff.is_constant:
            raise NonConstantDependence(
                f"dimension {dim} of {consumer_ir.name!r} has parametric "
                "extent; constant-index dependence is unbounded",
                consumer=consumer_ir.name, dim=dim)
        values_lo.append(aff.const)
    for aff in bounds.uppers:
        if not aff.is_constant:
            raise NonConstantDependence(
                f"dimension {dim} of {consumer_ir.name!r} has parametric "
                "extent; constant-index dependence is unbounded",
                consumer=consumer_ir.name, dim=dim)
        values_hi.append(aff.const)
    return max(values_lo), min(values_hi)


def edge_dependences(ir: PipelineIR, transforms: GroupTransforms,
                     producer: Stage, consumer: Stage) -> EdgeDependence:
    """Dependence ranges of one intra-group edge in group coordinates.

    The per-tap work lives in :meth:`PipelineIR.edge_summary`: what is
    left is scaling each producer dimension's unit hull by the producer's
    (positive, so hull-preserving) scale, plus the rare constant-index
    taps, whose range depends on the consumer's transform.
    """
    summary = ir.edge_summary(producer, consumer)
    assert summary.hulls is not None, "grouped access must be affine"
    consumer_ir = ir[consumer]
    ct = transforms[consumer]
    pt = transforms[producer]
    per_dim: list[DepRange | None] = [None] * transforms.ndim

    def widen(group_dim: int, rng: DepRange) -> None:
        existing = per_dim[group_dim]
        per_dim[group_dim] = rng if existing is None else existing.hull(rng)

    for d, hull in enumerate(summary.hulls):
        if hull is not None:
            s_p = pt.scales[d]
            widen(pt.dim_map[d], DepRange(s_p * hull[0], s_p * hull[1]))
    for d, form in summary.const_taps:
        # Constant index k = b / m: the dependence spans the whole
        # consumer dimension, which must have constant extent
        # (e.g. a colour-channel read like d(3, x, y)).
        group_dim = pt.dim_map[d]
        try:
            j = _consumer_dim_for(consumer_ir, ct, group_dim)
            v_lo, v_hi = _constant_extent(consumer_ir, j)
        except NonConstantDependence as exc:
            raise exc.with_context(
                producer=getattr(producer, "name", "?"),
                consumer=consumer_ir.name, dim=d,
                access=repr(form)) from None
        m, b = form.divisor, form.aff.const
        k = pt.scales[d] * (b // m if m > 1 else b)
        widen(group_dim,
              DepRange(ct.scales[j] * v_lo - k, ct.scales[j] * v_hi - k))
    ranges = tuple(r if r is not None else ZERO_DEP for r in per_dim)
    return EdgeDependence(producer, consumer, ranges)


def group_dependences(ir: PipelineIR, transforms: GroupTransforms,
                      stages: Iterable[Stage]) -> list[EdgeDependence]:
    """Dependences of every intra-group producer -> consumer edge."""
    group = set(stages)
    out = []
    for consumer in group:
        for producer in ir.graph.producers(consumer):
            if producer in group:
                out.append(edge_dependences(ir, transforms, producer, consumer))
    return out


def dependence_vectors(ir: PipelineIR, producer: Stage,
                       consumer: Stage) -> list[tuple[Fraction, ...]]:
    """Constant dependence vectors under *initial* schedules (Section 3.1).

    Returns one spatial vector per access tap (consume point minus produce
    point), e.g. the four corner taps of the paper's ``Sxx``/``Ixx``
    example give ``(1, 1), (-1, 1), (1, -1), (-1, -1)``.  Only valid for
    plain affine, unit-coefficient accesses; raises otherwise.
    """
    consumer_ir = ir[consumer]
    vectors = []
    for access in consumer_ir.accesses_to(producer):
        vec = []
        for d, form in enumerate(access.forms):
            if form is None or not form.is_plain_affine:
                raise ValueError("dependence vector requires affine access")
            var = form.aff.variables()
            if len(var) != 1 or form.aff.coefficient(var[0]) != 1:
                raise ValueError("dependence vector requires unit access")
            vec.append(-form.aff.const)
        vectors.append(tuple(vec))
    return vectors
