"""Fast-path analysis for the C backend (interior/boundary specialization).

The safe loop nests :mod:`repro.codegen.cgen` emits route every
data-dependent access through ``iclamp`` and every flooring division
through the ``fdiv``/``pmod`` helpers — correct everywhere, but paid on
every pixel.  This module derives, per case loop nest, the *interior*
fast path:

* **Clamp elimination** — for each clamped (non-affine) access, the
  value range of the index expression over the current loop bounds is
  propagated symbolically (mirroring
  :func:`repro.poly.interval.evaluate_expr`, but producing C expressions
  over the tile-scope bound variables).  When the range is derivable,
  the containment test ``range ⊆ producer extent`` becomes a cheap
  runtime guard evaluated once per tile; tiles where it holds take a
  clamp-free nest, boundary tiles keep the safe clamped code.
* **Strength reduction** — ``fdiv(e, m)`` / ``pmod(e, m)`` with a
  constant positive ``m`` collapse to C's native ``/`` and ``%`` (which
  gcc turns into shifts/masks) under a proven ``e >= 0`` guard; C
  truncating division equals flooring division exactly on non-negative
  numerators, so results stay bit-identical.
* **CSE / hoisting** (:class:`FastBody`) — per-reference row offsets
  that do not involve the innermost loop variable are hoisted into
  locals above the innermost loop, and repeated loads are deduplicated
  into scalars, so the innermost loop body is straight-line arithmetic
  the vectorizer can digest.

All guards are *sound for every parameter value*: they are evaluated at
runtime from the same bound variables the loops use, so a failed proof
merely falls back to the safe nest — never to wrong code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.constructs import Parameter, Variable
from repro.lang.expr import (
    BinOp, Call, Cast, Expr, Literal, Reference, Select, UnOp,
)
from repro.pipeline.ir import StageIR
from repro.poly.interval import IntInterval, evaluate_expr


# ---------------------------------------------------------------------------
# Symbolic (C-expression) interval propagation
# ---------------------------------------------------------------------------

def _walk(expr: Expr):
    """Pre-order traversal of an expression tree (conditions included)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def expr_variables(expr: Expr) -> set[int]:
    """``id()`` of every :class:`Variable` appearing in the expression."""
    return {id(n) for n in _walk(expr) if isinstance(n, Variable)}


def c_range(expr: Expr, gen, var_bounds: dict[int, tuple[str, str]]
            ) -> tuple[str, str] | None:
    """C expressions for the (lo, hi) value range of ``expr``.

    ``var_bounds`` maps ``id(Variable)`` to the names of the C variables
    holding that loop's inclusive bounds; ``gen`` supplies parameter
    naming.  Returns ``None`` when the expression leaves the supported
    fragment — the caller then keeps the safe code for it.  The string
    semantics mirror :func:`repro.poly.interval.evaluate_expr` exactly.
    """
    if isinstance(expr, Literal):
        if isinstance(expr.value, bool) or not isinstance(expr.value, int):
            return None
        return f"{expr.value}L", f"{expr.value}L"
    if isinstance(expr, Variable):
        return var_bounds.get(id(expr))
    if isinstance(expr, Parameter):
        name = gen.param(expr)
        return name, name
    if isinstance(expr, UnOp):
        r = c_range(expr.operand, gen, var_bounds)
        if r is None:
            return None
        return f"(-({r[1]}))", f"(-({r[0]}))"
    if isinstance(expr, Cast):
        if expr.dtype.is_float:
            return None
        return c_range(expr.operand, gen, var_bounds)
    if isinstance(expr, BinOp):
        left = c_range(expr.left, gen, var_bounds)
        if left is None:
            return None
        if expr.op in ("//", "%"):
            right = expr.right
            if not (isinstance(right, Literal)
                    and isinstance(right.value, int) and right.value > 0):
                return None
            if expr.op == "%":
                return "0L", f"{right.value - 1}L"
            m = right.value
            return f"fdiv({left[0]}, {m}L)", f"fdiv({left[1]}, {m}L)"
        right = c_range(expr.right, gen, var_bounds)
        if right is None:
            return None
        if expr.op == "+":
            return (f"({left[0]}) + ({right[0]})",
                    f"({left[1]}) + ({right[1]})")
        if expr.op == "-":
            return (f"({left[0]}) - ({right[1]})",
                    f"({left[1]}) - ({right[0]})")
        if expr.op == "*":
            # only multiplication by a literal keeps the bounds linear
            for a, b in ((expr.left, right), (expr.right, left)):
                if isinstance(a, Literal) and isinstance(a.value, int):
                    c = a.value
                    if c >= 0:
                        return f"{c}L*({b[0]})", f"{c}L*({b[1]})"
                    return f"{c}L*({b[1]})", f"{c}L*({b[0]})"
            return None
        return None
    if isinstance(expr, Call):
        if expr.name not in ("min", "max"):
            return None
        ranges = [c_range(a, gen, var_bounds) for a in expr.args]
        if any(r is None for r in ranges) or not ranges:
            return None
        helper = "imin" if expr.name == "min" else "imax"
        lo, hi = ranges[0]
        for r in ranges[1:]:
            lo = f"{helper}({lo}, {r[0]})"
            hi = f"{helper}({hi}, {r[1]})"
        return lo, hi
    if isinstance(expr, Select):
        t = c_range(expr.true_expr, gen, var_bounds)
        f = c_range(expr.false_expr, gen, var_bounds)
        if t is None or f is None:
            return None
        return f"imin({t[0]}, {f[0]})", f"imax({t[1]}, {f[1]})"
    return None


# ---------------------------------------------------------------------------
# Per-case fast-path plan
# ---------------------------------------------------------------------------

@dataclass
class CasePlan:
    """What the fast nest of one case may legally do, and at what price.

    ``conds`` are C boolean expressions over tile-scope bound variables;
    their conjunction guards the fast nest.  An empty list means the
    fast nest is unconditionally valid (it then replaces the safe nest
    outright instead of an ``if``/``else`` pair).
    """

    conds: list[str] = field(default_factory=list)
    #: ``(id(Reference), dim)`` pairs whose ``iclamp`` the fast nest drops
    drop_clamps: set[tuple[int, int]] = field(default_factory=set)
    #: ``id(BinOp)`` of ``//``/``%`` nodes emitted as native ``/`` ``%``
    reduce_divs: set[int] = field(default_factory=set)
    # report counters
    n_clamped_dims: int = 0
    n_divs: int = 0

    @property
    def guarded(self) -> bool:
        return bool(self.conds)

    @property
    def n_dropped(self) -> int:
        return len(self.drop_clamps)

    @property
    def n_reduced(self) -> int:
        return len(self.reduce_divs)


def analyze_case(gen, stage_ir: StageIR, case,
                 var_bounds: dict[int, tuple[str, str]]) -> CasePlan:
    """Derive the fast-path plan for one case of a stage.

    ``gen`` is the emitting :class:`~repro.codegen.cgen.CGenerator`
    (used for parameter and extent naming); ``var_bounds`` names the C
    variables holding each loop's inclusive bounds at the point the
    guard will be evaluated.
    """
    plan = CasePlan()
    seen_conds: set[str] = set()

    def add_cond(cond: str) -> None:
        if cond not in seen_conds:
            seen_conds.add(cond)
            plan.conds.append(cond)

    for node in _walk(case.expression):
        if isinstance(node, Reference):
            forms = gen.plan.ir.access_forms(node)
            for d, arg in enumerate(node.args):
                if forms[d] is not None:
                    continue  # affine: already clamp-free and region-proven
                plan.n_clamped_dims += 1
                rng = c_range(arg, gen, var_bounds)
                if rng is None:
                    continue
                lo_name, hi_name = gen._extent_names(node.function, d)
                plan.drop_clamps.add((id(node), d))
                add_cond(f"({rng[0]}) >= {lo_name}")
                add_cond(f"({rng[1]}) <= {hi_name}")
        elif isinstance(node, BinOp) and node.op in ("//", "%"):
            right = node.right
            if not (isinstance(right, Literal)
                    and isinstance(right.value, int) and right.value > 0):
                continue
            plan.n_divs += 1
            rng = c_range(node.left, gen, var_bounds)
            if rng is None:
                continue
            plan.reduce_divs.add(id(node))
            add_cond(f"({rng[0]}) >= 0L")
    return plan


def simd_safe(stage_ir: StageIR, case) -> bool:
    """True when the innermost loop's stores are provably unit-stride and
    alias-free, so ``ivdep``/``omp simd`` are legal.

    Stores index the target by the loop variables directly (unit stride
    along the innermost dimension by construction); the remaining hazard
    is the stage reading its own buffer, which only self-referential
    stages do — those are emitted by a dedicated scalar path, but we
    verify here rather than assume.
    """
    if stage_ir.ndim < 1:
        return False
    target = stage_ir.stage
    for node in _walk(case.expression):
        if isinstance(node, Reference) and node.function is target:
            return False
    return True


# ---------------------------------------------------------------------------
# Fast-body CSE / hoisting
# ---------------------------------------------------------------------------

class FastBody:
    """Collects hoisted row offsets and CSE'd loads for one fast nest.

    The generator builds the body expression *before* emitting the
    innermost loop; every access registered here lands either in
    ``offset_decls`` (emitted above the innermost loop — index terms
    free of the innermost variable) or ``load_decls`` (emitted at the
    top of the innermost body — each distinct load read exactly once).
    """

    def __init__(self, plan: CasePlan, innermost_id: int | None):
        self.plan = plan
        self.innermost_id = innermost_id
        self._offsets: dict[str, str] = {}
        self._loads: dict[str, str] = {}
        self.offset_decls: list[str] = []
        self.load_decls: list[str] = []

    def hoistable(self, arg: Expr) -> bool:
        """May this index expression move above the innermost loop?"""
        return (self.innermost_id is not None
                and self.innermost_id not in expr_variables(arg))

    def offset(self, expr: str) -> str:
        name = self._offsets.get(expr)
        if name is None:
            name = f"_ro{len(self._offsets)}"
            self._offsets[expr] = name
            self.offset_decls.append(f"const long {name} = {expr};")
        return name

    def load(self, access: str, ctype: str) -> str:
        name = self._loads.get(access)
        if name is None:
            name = f"_ld{len(self._loads)}"
            self._loads[access] = name
            self.load_decls.append(f"const {ctype} {name} = {access};")
        return name

    @property
    def n_hoisted(self) -> int:
        return len(self._offsets)

    @property
    def n_loads_cse(self) -> int:
        return len(self._loads)


# ---------------------------------------------------------------------------
# Reporting (explain()/summary())
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageFastInfo:
    """Static specialization facts for one stage (all cases pooled)."""

    stage: str
    group: int
    tiled: bool
    n_cases: int
    n_clamped_dims: int
    n_dropped: int
    n_divs: int
    n_reduced: int
    guarded: bool
    #: fraction of the stage's domain provably interior under the
    #: estimates (1.0 when unconditional; None when not derivable)
    interior_fraction: float | None

    def render(self) -> str:
        if self.n_clamped_dims == 0 and self.n_divs == 0:
            detail = "no clamps or helper divisions; fast path unconditional"
        else:
            parts = []
            if self.n_clamped_dims:
                parts.append(f"clamps eliminated {self.n_dropped}/"
                             f"{self.n_clamped_dims}")
            if self.n_divs:
                parts.append(f"divisions reduced {self.n_reduced}/"
                             f"{self.n_divs}")
            parts.append("guarded per tile" if self.guarded
                         else "unconditional")
            detail = ", ".join(parts)
        if self.interior_fraction is not None and self.guarded:
            detail += (f"; interior covers "
                       f"{self.interior_fraction * 100.0:.0f}% of the "
                       "domain at the estimates")
        return f"{self.stage}: {detail}"


class _NullNamer:
    """Parameter/extent naming shim for analysis without a generator."""

    def __init__(self, plan):
        self.plan = plan

    def param(self, p: Parameter) -> str:
        return p.name

    def _extent_names(self, producer, d: int) -> tuple[str, str]:
        return f"{producer.name}_lo{d}", f"{producer.name}_hi{d}"


def _producer_box(plan, producer, env: dict
                  ) -> tuple[IntInterval, ...] | None:
    """Concrete stored extents of a producer (image or stage) at ``env``."""
    from repro.lang.image import Image
    from repro.poly.affine import to_affine
    if isinstance(producer, Image):
        box = []
        for e in producer.extents:
            n = to_affine(e, params_only=True).evaluate_int(env)
            if n < 1:
                return None
            box.append(IntInterval(0, n - 1))
        return tuple(box)
    try:
        stage_ir = plan.ir[producer]
    except KeyError:
        return None
    return stage_ir.domain.concretize(env)


def _interior_fraction(plan, stage_ir: StageIR, env: dict) -> float | None:
    """Fraction of the stage's fast-path proofs that hold over the whole
    domain under ``env``.

    Replays the clamp-containment and non-negativity proofs concretely
    with :func:`repro.poly.interval.evaluate_expr` over the concretized
    domain: conservative (a failed concrete proof counts as boundary),
    and exactly 1.0 when every guard holds over the whole domain.
    """
    box = stage_ir.domain.concretize(env)
    if box is None:
        return None
    var_env: dict = dict(env)
    for var, ivl in zip(stage_ir.variables, box):
        var_env[var] = ivl
    total = ok = 0
    for case in stage_ir.cases:
        for node in _walk(case.expression):
            if isinstance(node, Reference):
                forms = plan.ir.access_forms(node)
                for d, arg in enumerate(node.args):
                    if forms[d] is not None:
                        continue
                    total += 1
                    rng = evaluate_expr(arg, var_env)
                    dom = _producer_box(plan, node.function, env)
                    if rng is None or dom is None:
                        continue
                    if dom[d].contains(rng):
                        ok += 1
            elif isinstance(node, BinOp) and node.op in ("//", "%"):
                right = node.right
                if not (isinstance(right, Literal)
                        and isinstance(right.value, int)
                        and right.value > 0):
                    continue
                total += 1
                rng = evaluate_expr(node.left, var_env)
                if rng is not None and rng.lo >= 0:
                    ok += 1
    if total == 0:
        return 1.0
    return ok / total


def specialization_report(plan) -> list[StageFastInfo]:
    """Per-stage fast-path facts for ``explain()``/``summary()``."""
    null = _NullNamer(plan)
    infos: list[StageFastInfo] = []
    env = dict(plan.estimates)
    for gi, gp in enumerate(plan.group_plans):
        for stage in gp.ordered_stages:
            stage_ir = plan.ir[stage]
            if stage_ir.is_accumulator or stage_ir.is_self_referential:
                continue
            var_bounds = {id(v): (f"c{d}lb", f"c{d}ub")
                          for d, v in enumerate(stage_ir.variables)}
            n_clamped = n_dropped = n_divs = n_reduced = 0
            guarded = False
            for case in stage_ir.cases:
                cp = analyze_case(null, stage_ir, case, var_bounds)
                n_clamped += cp.n_clamped_dims
                n_dropped += cp.n_dropped
                n_divs += cp.n_divs
                n_reduced += cp.n_reduced
                guarded = guarded or cp.guarded
            infos.append(StageFastInfo(
                stage=stage.name, group=gi, tiled=gp.is_tiled,
                n_cases=len(stage_ir.cases),
                n_clamped_dims=n_clamped, n_dropped=n_dropped,
                n_divs=n_divs, n_reduced=n_reduced, guarded=guarded,
                interior_fraction=_interior_fraction(plan, stage_ir, env)
                if guarded else (1.0 if n_divs or n_clamped else None)))
    return infos
