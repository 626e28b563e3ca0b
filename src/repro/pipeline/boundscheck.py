"""Static bounds checking (paper Section 3, front end).

Verifies, under the compile-time parameter estimates, that every analysed
(affine) access of every stage stays inside the accessed function's
domain.  References to values outside a function's domain are invalid and
reported with enough context to locate the offending access.  Only affine
accesses are analysed, matching the paper; data-dependent indices are
checked at run time by the interpreter backend (and clamped by generated
code).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.lang.constructs import Parameter
from repro.lang.image import Image
from repro.pipeline.ir import AccessInfo, PipelineIR, StageIR
from repro.poly.interval import IntInterval, evaluate_access
from repro.poly.iset import ParametricBox


class BoundsError(ValueError):
    """One or more accesses were proven out of bounds."""

    def __init__(self, violations: list["BoundsViolation"]):
        self.violations = violations
        lines = [f"{len(violations)} out-of-bounds access(es):"]
        lines += [f"  - {v}" for v in violations]
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class BoundsViolation:
    """A proven out-of-domain access under the parameter estimates."""

    consumer: str
    producer: str
    dim: int
    access_range: IntInterval
    domain_range: IntInterval
    #: the (parameter name, value) estimates the proof was made under
    estimates: tuple[tuple[str, int], ...] = ()

    def __str__(self) -> str:
        under = ""
        if self.estimates:
            binds = ", ".join(f"{n}={v}" for n, v in self.estimates)
            under = f" (under {binds})"
        return (f"{self.consumer} reads {self.producer} dim {self.dim} over "
                f"{self.access_range}, outside domain "
                f"{self.domain_range}{under}")


def _producer_box(ir: PipelineIR, producer) -> ParametricBox | None:
    if isinstance(producer, Image):
        return ir.input_domain(producer)
    info = ir.stages.get(producer)
    return info.domain if info is not None else None


def _check_access(ir: PipelineIR, consumer: StageIR, access: AccessInfo,
                  var_env: dict[Hashable, IntInterval | int],
                  estimates: Mapping[Parameter, int],
                  violations: list[BoundsViolation],
                  domains: dict) -> None:
    # a producer's box is concretized once per check, not once per tap
    producer = access.producer
    if producer not in domains:
        producer_box = _producer_box(ir, producer)
        domains[producer] = None if producer_box is None else \
            producer_box.concretize(estimates)
    domain = domains[producer]
    if domain is None:
        return
    for dim, form in enumerate(access.forms):
        if form is None:
            continue  # data-dependent: not statically analysed
        try:
            rng = evaluate_access(form, var_env)
        except KeyError:
            # Index uses a symbol with no interval (e.g. a parameter not
            # estimated); treat as unanalysable.
            continue
        if not domain[dim].contains(rng):
            used = tuple(sorted(
                (p.name, v) for p, v in estimates.items()
                if isinstance(p, Parameter)))
            violations.append(BoundsViolation(
                consumer=consumer.name,
                producer=getattr(access.producer, "name", "?"),
                dim=dim,
                access_range=rng,
                domain_range=domain[dim],
                estimates=used,
            ))


def check_bounds(ir: PipelineIR, estimates: Mapping[Parameter, int]) -> None:
    """Raise :class:`BoundsError` if any affine access is out of bounds.

    The check instantiates every domain with the user-provided parameter
    estimates, tightens consumer domains with each case's bound
    constraints, and pushes the resulting boxes through the access
    functions with interval arithmetic.
    """
    violations = collect_bounds_violations(ir, estimates)
    if violations:
        raise BoundsError(violations)


def collect_bounds_violations(
        ir: PipelineIR,
        estimates: Mapping[Parameter, int]) -> list[BoundsViolation]:
    """All provable out-of-bounds accesses, without raising.

    This is the reporting core of :func:`check_bounds`; the verifier
    (:mod:`repro.verify`) folds each violation into its report as an
    ``RV101`` diagnostic instead of aborting compilation.
    """
    violations: list[BoundsViolation] = []
    domains: dict = {}  # producer -> its concrete box (None: no box)
    for stage_ir in ir.ordered():
        base_env: dict[Hashable, IntInterval | int] = dict(estimates)
        if stage_ir.is_accumulator:
            var_box = stage_ir.domain.concretize(estimates)
            red_box = (stage_ir.reduction_domain.concretize(estimates)
                       if stage_ir.reduction_domain is not None else None)
            if var_box is None or red_box is None:
                continue
            env = dict(base_env)
            env.update(zip(stage_ir.variables, var_box))
            env.update(zip(stage_ir.stage.red_variables, red_box))
            for access in stage_ir.accesses:
                _check_access(ir, stage_ir, access, env, estimates,
                              violations, domains)
            continue
        for case in stage_ir.cases:
            case_box = case.box.concretize(estimates)
            if case_box is None:
                continue  # empty under estimates: nothing to evaluate
            env = dict(base_env)
            env.update(zip(stage_ir.variables, case_box))
            for access in _case_accesses(stage_ir, case):
                _check_access(ir, stage_ir, access, env, estimates,
                              violations, domains)
    return violations


def _case_accesses(stage_ir: StageIR, case) -> list[AccessInfo]:
    """Accesses whose reference occurs in this particular case."""
    if len(stage_ir.cases) == 1:
        return list(stage_ir.accesses)  # the only case holds them all
    from repro.lang.expr import condition_references, references
    refs = {id(r) for r in references(case.expression)}
    refs |= {id(r) for r in condition_references(case.condition)}
    return [a for a in stage_ir.accesses if id(a.reference) in refs]
