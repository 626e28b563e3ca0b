"""Whole-pipeline value-range analysis (forward abstract interpretation).

Propagates a per-stage *value* interval through the stage DAG: input
images contribute their dtype ranges (or user-supplied tighter ranges),
parameters contribute their compile-time estimates, and each stage's
cases are abstractly evaluated over its estimate-concretised domain box
(seeded from :mod:`repro.poly.interval`).  ``Select``/case splits widen
by hulling both branches, division and modulo are guarded against
zero-crossing divisors, and upsample/downsample access forms are
value-transparent (a value range does not depend on *where* a producer
is read, only on *what* it stores).

The derived ranges drive two consumers:

* :func:`narrowing_decisions` — the precision-narrowing pass behind
  ``CompileOptions.narrow``, which assigns each non-output stage the
  narrowest C storage type its proven range fits (see
  :mod:`repro.codegen.cgen`); and
* the RV4xx/RV5xx verifier checks, which re-derive ranges independently
  (:mod:`repro.verify.rangecheck`) and audit the pass.

All interval endpoints are exact: integral ranges keep Python ints
(arbitrary precision), non-integral ranges use floats with ``±inf`` as
the unbounded ends.  The lattice top is ``(-inf, +inf, non-integral)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.lang.constructs import Parameter, Variable
from repro.lang.expr import (
    BinOp, Call, Cast, Literal, Reference, Select, UnOp,
)
from repro.lang.image import Image
from repro.lang.types import (
    Char, DType, Double, Float, Int, Short, UChar, UShort,
)

_INF = math.inf

#: exactly representable integer magnitude bound of an IEEE-754 float32
F32_EXACT_INT = 1 << 24

#: largest finite IEEE-754 float32
F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class ValueInterval:
    """An inclusive value range ``[lo, hi]`` with an integrality flag.

    ``integral=True`` asserts every value the abstracted computation can
    produce is a mathematical integer (regardless of the storage type it
    flows through); endpoints are then exact Python ints.  Non-integral
    ranges use float endpoints, ``±inf`` marking unbounded ends.
    """

    lo: int | float
    hi: int | float
    integral: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty value interval [{self.lo}, {self.hi}]")
        if self.integral:
            if not (_is_int(self.lo) and _is_int(self.hi)):
                raise ValueError("integral interval needs integer endpoints")
            object.__setattr__(self, "lo", int(self.lo))
            object.__setattr__(self, "hi", int(self.hi))

    # -- constructors -----------------------------------------------------
    @staticmethod
    def top() -> "ValueInterval":
        return TOP

    @staticmethod
    def point(value: int | float) -> "ValueInterval":
        if isinstance(value, int):
            return ValueInterval(value, value, True)
        return ValueInterval(float(value), float(value), False)

    @staticmethod
    def of_dtype(dtype: DType) -> "ValueInterval":
        """The full representable range of a DSL scalar type."""
        if dtype.is_float:
            return TOP
        info = np.iinfo(dtype.np_dtype)
        return ValueInterval(int(info.min), int(info.max), True)

    # -- structure --------------------------------------------------------
    @property
    def is_finite(self) -> bool:
        return not (math.isinf(self.lo) or math.isinf(self.hi))

    def hull(self, other: "ValueInterval") -> "ValueInterval":
        return ValueInterval(min(self.lo, other.lo), max(self.hi, other.hi),
                             self.integral and other.integral)

    def contains(self, other: "ValueInterval") -> bool:
        """``other`` lies inside ``self`` (integrality may only tighten)."""
        if self.lo > other.lo or other.hi > self.hi:
            return False
        return other.integral or not self.integral

    def fits(self, dtype: DType) -> bool:
        """Every value of this range is exactly representable in ``dtype``."""
        if dtype is Double:
            return True
        if dtype is Float:
            return (self.integral and self.is_finite
                    and max(abs(self.lo), abs(self.hi)) <= F32_EXACT_INT)
        if not (self.integral and self.is_finite):
            return False
        info = np.iinfo(dtype.np_dtype)
        return info.min <= self.lo and self.hi <= info.max

    def __repr__(self) -> str:
        kind = "int" if self.integral else "real"
        lo = f"{self.lo}" if _is_int(self.lo) else f"{self.lo:.6g}"
        hi = f"{self.hi}" if _is_int(self.hi) else f"{self.hi:.6g}"
        return f"[{lo}, {hi}] {kind}"


TOP = ValueInterval(-_INF, _INF, False)


def _is_int(v) -> bool:
    return isinstance(v, int) or (isinstance(v, float) and v.is_integer())


def _f32_finite(r: ValueInterval) -> bool:
    return r.is_finite and max(abs(r.lo), abs(r.hi)) <= F32_MAX


def _mul(a, b):
    """Endpoint product with the interval convention ``0 * inf == 0``."""
    if a == 0 or b == 0:
        return 0
    return a * b


# ---------------------------------------------------------------------------
# Abstract interpretation
# ---------------------------------------------------------------------------

class RangeAnalysis:
    """Forward value-range propagation over a :class:`PipelineIR`.

    ``input_ranges`` optionally overrides the seeded range per input
    image (keyed by :class:`Image` or image name); defaults are the full
    dtype range for integer images and TOP for float images.
    """

    def __init__(self, ir, estimates: Mapping[Parameter, int],
                 input_ranges=None):
        self.ir = ir
        self.estimates = dict(estimates)
        self.producer_ranges: dict = {}
        for image in ir.graph.inputs:
            self.producer_ranges[image] = self._seed_image(
                image, input_ranges)
        self.stage_ranges: dict = {}

    @classmethod
    def run(cls, ir, estimates, input_ranges=None) -> "RangeAnalysis":
        analysis = cls(ir, estimates, input_ranges)
        for stage_ir in ir.ordered():
            r = analysis.stage_range(stage_ir)
            analysis.stage_ranges[stage_ir.stage] = r
            analysis.producer_ranges[stage_ir.stage] = r
        return analysis

    @staticmethod
    def _seed_image(image, input_ranges) -> ValueInterval:
        if input_ranges:
            override = input_ranges.get(image, input_ranges.get(image.name))
            if override is not None:
                if isinstance(override, ValueInterval):
                    return override
                lo, hi = override
                if _is_int(lo) and _is_int(hi):
                    return ValueInterval(int(lo), int(hi), True)
                return ValueInterval(float(lo), float(hi), False)
        return ValueInterval.of_dtype(image.dtype)

    # -- per-stage transfer function --------------------------------------
    def stage_range(self, stage_ir) -> ValueInterval:
        stage = stage_ir.stage
        if stage_ir.is_accumulator or stage_ir.is_self_referential:
            # reductions fold in-place and time-iterated stages read their
            # own previous values: a single forward pass cannot bound
            # either, so both take their declared type's full range
            return ValueInterval.of_dtype(stage.dtype)
        # uncovered domain points stay at the calloc/memset zero
        result = ValueInterval.point(0)
        for case in stage_ir.cases:
            env = self._case_env(stage_ir, case)
            if env is None:
                continue  # empty under the estimates
            r = self.expr_range(case.expression, env)
            result = result.hull(self._store_cast(r, stage.dtype))
        return result

    def _case_env(self, stage_ir, case) -> dict | None:
        """Variable/parameter environment for one case, or ``None`` when
        the case box is empty under the estimates."""
        box = case.box.concretize(self.estimates)
        if box is None:
            box = stage_ir.domain.concretize(self.estimates)
            if box is None:
                return None
        env: dict = {}
        for var, ivl in zip(stage_ir.variables, box):
            env[var] = ValueInterval(ivl.lo, ivl.hi, True)
        for param, value in self.estimates.items():
            env[param] = ValueInterval.point(int(value))
        return env

    @staticmethod
    def _store_cast(r: ValueInterval, dtype: DType) -> ValueInterval:
        """Range after the store-side cast to the stage's declared type."""
        if dtype.is_float:
            if dtype is Float and not r.fits(Float) and r.is_finite:
                # float32 rounding can move an endpoint by half an ulp;
                # pad by one relative epsilon each side
                pad = max(abs(r.lo), abs(r.hi)) * 2.0 ** -23
                return ValueInterval(r.lo - pad, r.hi + pad, False)
            return r
        if r.fits(dtype):
            return ValueInterval(int(r.lo), int(r.hi), True)
        # out-of-range integer conversion (or a non-integral value being
        # truncated): the result is only known to be representable
        return ValueInterval.of_dtype(dtype)

    # -- expression transfer function --------------------------------------
    def expr_range(self, expr, env: Mapping) -> ValueInterval:
        """Abstract value of ``expr`` under a variable/parameter env."""
        rec = lambda e: self.expr_range(e, env)  # noqa: E731

        if isinstance(expr, Literal):
            if isinstance(expr.value, bool):
                return TOP
            return ValueInterval.point(expr.value)
        if isinstance(expr, (Variable, Parameter)):
            return env.get(expr, TOP)
        if isinstance(expr, UnOp):
            r = rec(expr.operand)
            return ValueInterval(-r.hi, -r.lo, r.integral)
        if isinstance(expr, Cast):
            return self._cast_range(rec(expr.operand), expr.dtype)
        if isinstance(expr, Select):
            # widening: ignore the condition, hull both branches
            return rec(expr.true_expr).hull(rec(expr.false_expr))
        if isinstance(expr, Reference):
            producer = expr.function
            if producer in self.producer_ranges:
                return self.producer_ranges[producer]
            if isinstance(producer, Image):
                return ValueInterval.of_dtype(producer.dtype)
            # self-reference (producer not yet finalised)
            return ValueInterval.of_dtype(producer.dtype)
        if isinstance(expr, BinOp):
            return self._binop_range(expr.op, rec(expr.left),
                                     rec(expr.right))
        if isinstance(expr, Call):
            return self._call_range(expr.name, [rec(a) for a in expr.args])
        return TOP

    @staticmethod
    def _cast_range(r: ValueInterval, dtype: DType) -> ValueInterval:
        if dtype.is_float:
            if dtype is Float and not r.fits(Float) and r.is_finite:
                pad = max(abs(r.lo), abs(r.hi)) * 2.0 ** -23
                return ValueInterval(r.lo - pad, r.hi + pad, False)
            return r
        if r.fits(dtype):
            return ValueInterval(int(r.lo), int(r.hi), True)
        if r.integral and r.is_finite:
            # integral but out of range: wraparound, only the
            # representable set is known
            return ValueInterval.of_dtype(dtype)
        if r.is_finite:
            # trunc-toward-zero endpoints, then the fit rule
            t = ValueInterval(math.trunc(r.lo), math.trunc(r.hi), True)
            return t if t.fits(dtype) else ValueInterval.of_dtype(dtype)
        return ValueInterval.of_dtype(dtype)

    @staticmethod
    def _binop_range(op: str, left: ValueInterval,
                     right: ValueInterval) -> ValueInterval:
        integral = left.integral and right.integral
        if op == "+":
            return ValueInterval(left.lo + right.lo, left.hi + right.hi,
                                 integral)
        if op == "-":
            return ValueInterval(left.lo - right.hi, left.hi - right.lo,
                                 integral)
        if op == "*":
            corners = [_mul(a, b) for a in (left.lo, left.hi)
                       for b in (right.lo, right.hi)]
            return ValueInterval(min(corners), max(corners), integral)
        if op == "/":
            # true division in both backends (C casts int operands to
            # double); guarded against divisors that may reach zero
            if right.lo <= 0 <= right.hi or not right.is_finite \
                    or not left.is_finite:
                return TOP
            corners = [a / d for a in (left.lo, left.hi)
                       for d in (right.lo, right.hi)]
            return ValueInterval(min(corners), max(corners), False)
        if op == "//":
            # flooring division (fdiv / np.floor_divide); the quotient is
            # monotone in both operands once the divisor has one sign, so
            # corners bound it
            if right.lo <= 0 <= right.hi or not right.is_finite \
                    or not left.is_finite:
                return TOP
            corners = [math.floor(a / d) for a in (left.lo, left.hi)
                       for d in (right.lo, right.hi)]
            return ValueInterval(min(corners), max(corners), True)
        if op == "%":
            # Python/NumPy sign semantics (pmod in the C prelude):
            # result in [0, m) for m > 0 and (m, 0] for m < 0
            if not right.is_finite:
                return TOP
            if right.lo > 0:
                hi = right.hi - 1 if integral else float(right.hi)
                return ValueInterval(0, hi, integral)
            if right.hi < 0:
                lo = right.lo + 1 if integral else float(right.lo)
                return ValueInterval(lo, 0, integral)
            return TOP
        return TOP

    @staticmethod
    def _call_range(name: str, args: list) -> ValueInterval:
        integral = all(a.integral for a in args)
        if name == "min":
            return ValueInterval(min(a.lo for a in args),
                                 min(a.hi for a in args), integral)
        if name == "max":
            return ValueInterval(max(a.lo for a in args),
                                 max(a.hi for a in args), integral)
        a = args[0]
        if name == "abs":
            if a.lo >= 0:
                return a
            if a.hi <= 0:
                return ValueInterval(-a.hi, -a.lo, a.integral)
            return ValueInterval(0, max(-a.lo, a.hi), a.integral)
        if name in ("floor", "ceil"):
            f = math.floor if name == "floor" else math.ceil
            lo = f(a.lo) if not math.isinf(a.lo) else a.lo
            hi = f(a.hi) if not math.isinf(a.hi) else a.hi
            return ValueInterval(lo, hi, not (math.isinf(lo)
                                              or math.isinf(hi)))
        if name == "sqrt":
            if a.hi < 0:
                return TOP
            lo = math.sqrt(max(0, a.lo))
            hi = math.sqrt(a.hi) if not math.isinf(a.hi) else _INF
            return ValueInterval(lo, hi, False)
        if name == "exp":
            try:
                lo = math.exp(a.lo) if not math.isinf(a.lo) else (
                    0.0 if a.lo < 0 else _INF)
                hi = math.exp(a.hi) if not math.isinf(a.hi) else _INF
            except OverflowError:
                return ValueInterval(0.0, _INF, False)
            return ValueInterval(lo, hi, False)
        if name == "log":
            if a.lo <= 0:
                return TOP
            hi = math.log(a.hi) if not math.isinf(a.hi) else _INF
            return ValueInterval(math.log(a.lo), hi, False)
        if name == "atan":
            lo = math.atan(a.lo) if not math.isinf(a.lo) else -math.pi / 2
            hi = math.atan(a.hi) if not math.isinf(a.hi) else math.pi / 2
            return ValueInterval(lo, hi, False)
        if name in ("sin", "cos"):
            return ValueInterval(-1.0, 1.0, False)
        return TOP  # tan, pow: unbounded / sign-dependent

    # -- NaN-sound fragment --------------------------------------------------
    @classmethod
    def nan_free_range(cls, expr) -> ValueInterval | None:
        """Range of a float expression proven never to be NaN, else ``None``.

        :meth:`expr_range` ignores NaN (a NaN image pixel is "inside"
        every float range), which is fine for storage narrowing but not
        for dropping an index clamp.  This is the fragment where NaN is
        excluded by construction, using the same transfer functions:

        * float literals;
        * ``min``/``max`` whose operands *after the first* are NaN-free.
          C's ``dmax(a, b)`` is ``a > b ? a : b``, so a NaN ``a`` yields
          ``b`` and a NaN ``b`` yields NaN: ``Max(x, 0.0)`` is NaN-free
          for any ``x``, ``Max(0.0, x)`` is not.  The first operand is
          then only unknown (TOP);
        * ``+``/``-``/``*`` of NaN-free operands whose ranges (and
          result) stay inside float32's finite range, padded for float32
          rounding like a ``Float`` cast;
        * casts of a finite NaN-free range (C's ``(int)NaN`` and
          ``(int)inf`` are undefined).
        """
        if isinstance(expr, Cast):
            r = cls.nan_free_range(expr.operand)
            if r is None or not r.is_finite:
                return None
            return cls._cast_range(r, expr.dtype)
        if isinstance(expr, Literal):
            if isinstance(expr.value, bool) or expr.value != expr.value:
                return None
            return ValueInterval.point(expr.value)
        if isinstance(expr, Call) and expr.name in ("min", "max") \
                and len(expr.args) >= 2:
            rest = [cls.nan_free_range(a) for a in expr.args[1:]]
            if any(r is None for r in rest):
                return None
            first = cls.nan_free_range(expr.args[0]) or TOP
            return cls._call_range(expr.name, [first, *rest])
        if isinstance(expr, BinOp) and expr.op in ("+", "-", "*"):
            left = cls.nan_free_range(expr.left)
            right = cls.nan_free_range(expr.right)
            if left is None or right is None \
                    or not (_f32_finite(left) and _f32_finite(right)):
                return None
            r = cls._cast_range(cls._binop_range(expr.op, left, right),
                                Float)
            return r if _f32_finite(r) else None
        return None


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def analyze_ranges(plan, input_ranges=None) -> dict:
    """Per-stage value ranges of a compiled plan (keyed by stage)."""
    analysis = RangeAnalysis.run(plan.ir, plan.estimates, input_ranges)
    return dict(analysis.stage_ranges)


#: integer narrowing targets in preference order (smallest first,
#: unsigned before signed at equal width)
_INT_TARGETS = (UChar, Char, UShort, Short)

#: declared integer types eligible for sub-``int`` storage narrowing.
#: All of these (and the targets) promote to ``int`` in C arithmetic,
#: so re-widening a narrowed load reproduces the original computation
#: exactly.  ``Long``/``ULong``/``UInt`` are excluded: narrowing them
#: would change their consumers' arithmetic type.
_NARROWABLE_INTS = (Int, Short, UShort, Char, UChar)


def narrow_target(dtype: DType, r: ValueInterval) -> DType | None:
    """Narrowest safe storage type for a stage of type ``dtype`` whose
    value range is proven to be ``r``, or ``None`` when nothing narrower
    is provably safe."""
    if dtype in _NARROWABLE_INTS:
        if not (r.integral and r.is_finite):
            return None
        for target in _INT_TARGETS:
            if target.np_dtype.itemsize >= dtype.np_dtype.itemsize:
                continue
            if r.fits(target):
                return target
        return None
    if dtype is Double and r.fits(Float):
        return Float
    return None


def narrowing_decisions(plan, ranges: Mapping) -> dict:
    """Map each narrowable stage to its narrowed storage :class:`DType`.

    Outputs keep their declared type (caller-visible ABI), and
    accumulators/self-referential stages keep theirs (their in-flight
    partial values are not bounded by the final range).
    """
    decisions: dict = {}
    for stage_ir in plan.ir.ordered():
        if (stage_ir.is_output or stage_ir.is_accumulator
                or stage_ir.is_self_referential):
            continue
        r = ranges.get(stage_ir.stage)
        if r is None:
            continue
        target = narrow_target(stage_ir.stage.dtype, r)
        if target is not None:
            decisions[stage_ir.stage] = target
    return decisions
