"""Fast-path analysis for the C backend (interior/boundary specialization).

The safe loop nests :mod:`repro.codegen.cgen` emits route every
data-dependent access through ``iclamp``, every accumulator scatter
through a per-point bounds test, and every flooring division through
the ``fdiv``/``pmod`` helpers — correct everywhere, but paid on every
pixel.  This module derives, per case loop nest (and per accumulator
scatter nest), the *interior* fast path:

* **Clamp elimination** — for each clamped (non-affine) access, the
  value range of the index expression over the current loop bounds is
  propagated symbolically by :func:`repro.poly.interval.expr_range`
  over :class:`CBounds`, whose endpoints are C expressions over the
  tile-scope bound variables.  When the range is derivable,
  the containment test ``range ⊆ producer extent`` becomes a cheap
  runtime guard evaluated once per tile; tiles where it holds take a
  clamp-free nest, boundary tiles keep the safe clamped code.  An index
  computed from *data* is derivable when it is an integer cast of a
  NaN-free float range
  (:meth:`repro.analysis.ranges.RangeAnalysis.nan_free_range` — e.g.
  ``Cast(Int, Min(Max(v, 0.0), 15.0))`` is in ``[0, 15]`` whatever the
  pixel ``v``); such a constant range against a constant extent is
  decided at compile time, with no guard.  A scatter's target index
  gets the same proof over the reduction domain, and the fast scatter
  nest drops its bounds test.
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

import re
from dataclasses import dataclass, field

from repro.lang.constructs import Parameter, Variable
from repro.lang.expr import BinOp, Expr, Literal, Reference, walk
from repro.lang.image import Image
from repro.pipeline.ir import StageIR
from repro.poly.affine import to_affine
from repro.poly.interval import IntInterval, evaluate_expr, expr_range


# ---------------------------------------------------------------------------
# Symbolic (C-expression) interval propagation
# ---------------------------------------------------------------------------

_INT_LITERAL = re.compile(r"(-?\d+)L")


def _literal(c: str) -> int | None:
    """The value of a C integer literal as :class:`CBounds` spells it."""
    m = _INT_LITERAL.fullmatch(c)
    return int(m.group(1)) if m else None


def _c_add(a: str, b: str, op: str) -> str:
    """``a op b`` for ``op`` in ``+``/``-``, folded when both are literals."""
    la, lb = _literal(a), _literal(b)
    if la is not None and lb is not None:
        return f"{la + lb if op == '+' else la - lb}L"
    return f"({a}) {op} ({b})"


class CBounds:
    """Interval endpoints as C expressions: the C-string bound type of
    :func:`repro.poly.interval.expr_range` (see
    :class:`~repro.poly.interval.IntBounds`).  Sums of literals fold, so
    ``zi + 1`` over a constant ``zi`` stays a literal.  The product of
    two non-literal ranges and division by a negative literal have no
    spelling here."""

    negative_divisors = False
    const = staticmethod(lambda v: f"{v}L")
    neg = staticmethod(lambda a: f"(-({a}))")
    add = staticmethod(lambda a, b: _c_add(a, b, "+"))
    sub = staticmethod(lambda a, b: _c_add(a, b, "-"))
    scale = staticmethod(lambda c, a: f"{c}L*({a})")
    fdiv = staticmethod(lambda a, m: f"fdiv({a}, {m}L)")
    min = staticmethod(lambda a, b: f"imin({a}, {b})")
    max = staticmethod(lambda a, b: f"imax({a}, {b})")
    product = staticmethod(lambda left, right: None)


def c_range(expr: Expr, gen, var_bounds: dict[int, tuple[str, str]]
            ) -> tuple[str, str] | None:
    """C expressions for the (lo, hi) value range of ``expr``.

    ``var_bounds`` maps ``id(Variable)`` to the names of the C variables
    holding that loop's inclusive bounds; ``gen`` supplies parameter
    naming.  Returns ``None`` when the expression leaves the supported
    fragment — the caller then keeps the safe code for it.
    """
    def leaf(e):
        if isinstance(e, Variable):
            return var_bounds.get(id(e))
        name = gen.param(e)
        return name, name

    return expr_range(expr, leaf, CBounds)


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
    # report counters, per proof site: a node a tree shares at several
    # sites is one key above but is emitted (and counted) at each
    n_clamped_dims: int = 0
    n_dropped: int = 0
    n_divs: int = 0
    n_reduced: int = 0

    @property
    def guarded(self) -> bool:
        return bool(self.conds)


def _constant_extent(gen, producer, d: int) -> IntInterval | None:
    """The stored extent of ``producer`` along ``d`` when it is the same
    for every parameter value (a full buffer or image with constant
    bounds, like bilateral's intensity axis), else ``None``.  Scratchpad
    extents are per-tile and never constant."""
    if producer in gen._scratch_sizes:
        return None
    if isinstance(producer, Image):
        n = to_affine(producer.extents[d], params_only=True)
        if not n.is_constant or n.const < 1:
            return None
        return IntInterval(0, int(n.const) - 1)
    bounds = gen.plan.ir[producer].domain.bounds[d]
    if not all(b.is_constant for b in (*bounds.lowers, *bounds.uppers)):
        return None
    return bounds.concretize({})


def _add_cond(plan: CasePlan, cond: str) -> None:
    if cond not in plan.conds:
        plan.conds.append(cond)


def _prove_within(gen, plan: CasePlan, arg: Expr, producer, d: int,
                  var_bounds: dict[int, tuple[str, str]]) -> bool:
    """Prove ``arg`` inside ``producer``'s extent along ``d``.

    A literal range against a constant extent is decided here, at
    compile time; otherwise the containment becomes two guard
    conditions on ``plan``.  False when the range is not derivable or
    provably escapes the extent (the caller keeps its clamp or test).
    """
    rng = c_range(arg, gen, var_bounds)
    if rng is None:
        return False
    lo, hi = _literal(rng[0]), _literal(rng[1])
    extent = (lo is not None and hi is not None
              and _constant_extent(gen, producer, d))
    if extent:
        return extent.contains(IntInterval(lo, hi))
    lo_name, hi_name = gen._extent_names(producer, d)
    _add_cond(plan, f"({rng[0]}) >= {lo_name}")
    _add_cond(plan, f"({rng[1]}) <= {hi_name}")
    return True


def _proof_sites(ir, exprs):
    """The fast path's proof obligations in ``exprs``, in emission order:
    ``(ref, d, index)`` for each clamped (non-affine) index of a
    reference, ``(div, None, numerator)`` for each ``//``/``%`` by a
    positive literal.  The C guards and the ``explain()`` replay both
    walk exactly these."""
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, Reference):
                forms = ir.access_forms(node)
                for d, arg in enumerate(node.args):
                    if forms[d] is None:  # affine: already region-proven
                        yield node, d, arg
            elif (isinstance(node, BinOp) and node.op in ("//", "%")
                  and isinstance(node.right, Literal)
                  and isinstance(node.right.value, int)
                  and node.right.value > 0):
                yield node, None, node.left


def _analyze(gen, exprs, var_bounds: dict[int, tuple[str, str]],
             plan: CasePlan) -> CasePlan:
    """Clamp and division proofs for every access/division in ``exprs``."""
    for node, d, arg in _proof_sites(gen.plan.ir, exprs):
        if d is not None:
            plan.n_clamped_dims += 1
            if _prove_within(gen, plan, arg, node.function, d, var_bounds):
                plan.drop_clamps.add((id(node), d))
                plan.n_dropped += 1
            continue
        plan.n_divs += 1
        rng = c_range(arg, gen, var_bounds)
        if rng is not None:
            plan.reduce_divs.add(id(node))
            plan.n_reduced += 1
            _add_cond(plan, f"({rng[0]}) >= 0L")
    return plan


def analyze_case(gen, stage_ir: StageIR, case,
                 var_bounds: dict[int, tuple[str, str]]) -> CasePlan:
    """Derive the fast-path plan for one case of a stage.

    ``gen`` is the emitting :class:`~repro.codegen.cgen.CGenerator`
    (used for parameter and extent naming); ``var_bounds`` names the C
    variables holding each loop's inclusive bounds at the point the
    guard will be evaluated.
    """
    return _analyze(gen, [case.expression], var_bounds, CasePlan())


def analyze_scatter(gen, stage_ir: StageIR,
                    var_bounds: dict[int, tuple[str, str]]
                    ) -> CasePlan | None:
    """Fast-path plan for an accumulator's scatter nest, or ``None``.

    Every target index must be proven inside the accumulator's extent
    over the whole reduction domain (``var_bounds``) — that proof is
    what lets the fast nest drop its per-point bounds test; without it
    there is no fast nest.  Divisions and gathers in the target and
    value expressions then get the usual case-nest treatment.
    """
    acc = stage_ir.accumulate
    plan = CasePlan()
    for d, arg in enumerate(acc.target.args):
        if not _prove_within(gen, plan, arg, stage_ir.stage, d, var_bounds):
            return None
    return _analyze(gen, [*acc.target.args, acc.value], var_bounds, plan)


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
    for node in walk(case.expression):
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
        """May this index expression move above the innermost loop?

        Not when it loads: its load is CSE'd into the innermost body,
        below where a hoisted offset is declared."""
        if self.innermost_id is None:
            return False
        return not any(isinstance(n, Reference) or id(n) == self.innermost_id
                       for n in walk(arg))

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
        # data-dependent reads never fuse with their producer, so every
        # producer they name is a full buffer
        self._scratch_sizes: dict = {}

    def param(self, p: Parameter) -> str:
        return p.name

    def _extent_names(self, producer, d: int) -> tuple[str, str]:
        return f"{producer.name}_lo{d}", f"{producer.name}_hi{d}"


def _producer_box(plan, producer, env: dict
                  ) -> tuple[IntInterval, ...] | None:
    """Concrete stored extents of a producer (image or stage) at ``env``."""
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

    Replays the guards' proof sites with the same
    :func:`repro.poly.interval.expr_range` rules, over int bounds of the
    concretized domain: conservative (a failed concrete proof counts as
    boundary), and exactly 1.0 when every guard holds over the whole
    domain.
    """
    box = stage_ir.domain.concretize(env)
    if box is None:
        return None
    var_env: dict = dict(env)
    for var, ivl in zip(stage_ir.variables, box):
        var_env[var] = ivl
    sites = list(_proof_sites(plan.ir,
                              [case.expression for case in stage_ir.cases]))
    if not sites:
        return 1.0
    ok = 0
    for node, d, arg in sites:
        rng = evaluate_expr(arg, var_env)
        if rng is None:
            continue
        if d is None:
            ok += rng.lo >= 0
        else:
            dom = _producer_box(plan, node.function, env)
            ok += dom is not None and dom[d].contains(rng)
    return ok / len(sites)


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
