"""Concrete integer interval arithmetic.

Used for region propagation through access functions: given the box a
consumer tile evaluates, the compiler/runtime computes the box each
producer must cover by pushing intervals through the (affine or sampled)
access forms.  This is the workhorse behind overlapped-tile shapes,
scratchpad sizing and static bounds checking.  :func:`expr_range` is
the one interval evaluator over general DSL index expressions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Mapping

from repro.analysis.ranges import RangeAnalysis
from repro.lang.constructs import Parameter, Variable
from repro.lang.expr import BinOp, Call, Cast, Literal, Select, UnOp
from repro.poly.affine import AccessForm, AffExpr


@dataclass(frozen=True)
class IntInterval:
    """A non-empty inclusive integer range ``[lo, hi]``."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    # -- structure --------------------------------------------------------
    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def contains(self, other: "IntInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "IntInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- set-ish operations -----------------------------------------------
    def intersect(self, other: "IntInterval") -> "IntInterval | None":
        """Intersection, or ``None`` when the ranges are disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return IntInterval(lo, hi)

    def hull(self, other: "IntInterval") -> "IntInterval":
        return IntInterval(min(self.lo, other.lo), max(self.hi, other.hi))

    def expand(self, left: int, right: int) -> "IntInterval":
        return IntInterval(self.lo - left, self.hi + right)

    # -- arithmetic -------------------------------------------------------
    def shift(self, delta: int) -> "IntInterval":
        return IntInterval(self.lo + delta, self.hi + delta)

    def scale(self, factor: Fraction | int) -> "IntInterval":
        """Multiply by a rational; result is the integer hull."""
        f = Fraction(factor)
        a = self.lo * f
        b = self.hi * f
        lo, hi = (a, b) if a <= b else (b, a)
        return IntInterval(math.floor(lo), math.ceil(hi))

    def floordiv(self, divisor: int) -> "IntInterval":
        """Elementwise flooring division (Python ``//`` semantics).

        Monotone increasing in the dividend for a positive divisor,
        decreasing for a negative one — the endpoints swap accordingly.
        """
        if divisor == 0:
            raise ValueError("divisor must be non-zero")
        if divisor < 0:
            return IntInterval(self.hi // divisor, self.lo // divisor)
        return IntInterval(self.lo // divisor, self.hi // divisor)

    def __add__(self, other: "IntInterval") -> "IntInterval":
        return IntInterval(self.lo + other.lo, self.hi + other.hi)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def evaluate_affine(aff: AffExpr,
                    env: Mapping[Hashable, "IntInterval | int"]) -> IntInterval:
    """Evaluate an affine expression over an interval environment.

    Symbols bound to ints are treated as degenerate intervals.  The result
    is the integer hull of the exact rational range.
    """
    # Fast path: every coefficient (and the constant) is an integer —
    # overwhelmingly the common case — so the whole evaluation stays in
    # machine integers instead of Fraction arithmetic.
    if aff.const.denominator == 1 and \
            all(c.denominator == 1 for _, c in aff.terms):
        ilo = ihi = aff.const.numerator
        for sym, coeff in aff.terms:
            try:
                value = env[sym]
            except KeyError:
                raise KeyError(
                    f"no interval bound for symbol {sym!r}") from None
            c = coeff.numerator
            if isinstance(value, int):
                ilo += c * value
                ihi += c * value
            elif c >= 0:
                ilo += c * value.lo
                ihi += c * value.hi
            else:
                ilo += c * value.hi
                ihi += c * value.lo
        return IntInterval(ilo, ihi)

    lo = hi = aff.const
    for sym, coeff in aff.terms:
        try:
            value = env[sym]
        except KeyError:
            raise KeyError(f"no interval bound for symbol {sym!r}") from None
        if isinstance(value, int):
            value = IntInterval(value, value)
        if coeff >= 0:
            lo += coeff * value.lo
            hi += coeff * value.hi
        else:
            lo += coeff * value.hi
            hi += coeff * value.lo
    return IntInterval(math.floor(lo), math.ceil(hi))


def evaluate_access(form: AccessForm,
                    env: Mapping[Hashable, "IntInterval | int"]) -> IntInterval:
    """Range of ``floor(aff / divisor)`` over an interval environment."""
    base = evaluate_affine(form.aff, env)
    if form.divisor == 1:
        return base
    return base.floordiv(form.divisor)


class IntBounds:
    """Interval endpoints as Python ints: the concrete bound type of
    :func:`expr_range`.  :class:`repro.codegen.opt.CBounds` spells the
    same operations as C expressions, so the C backend's fast-path
    guards and ``explain()``'s interior fractions share one set of
    interval rules."""

    #: ``//`` and ``%`` by a negative literal are in the fragment
    negative_divisors = True
    const, neg, add, sub = int, operator.neg, operator.add, operator.sub
    scale, fdiv, min, max = operator.mul, operator.floordiv, min, max

    @staticmethod
    def product(left: tuple, right: tuple) -> tuple[int, int]:
        products = [a * b for a in left for b in right]
        return min(products), max(products)


def _int_literal(e) -> bool:
    return (isinstance(e, Literal) and isinstance(e.value, int)
            and not isinstance(e.value, bool))


def expr_range(expr, leaf, bounds=IntBounds) -> tuple | None:
    """Conservative ``(lo, hi)`` value range of a DSL expression tree.

    The one integer interval evaluator: affine terms, clamping
    ``min``/``max``, flooring ``//`` and ``%`` by a non-zero literal
    (``%`` takes the divisor's sign), ``Select`` hulls, products, and
    integer casts of an integer or a NaN-free float range
    (:meth:`repro.analysis.ranges.RangeAnalysis.nan_free_range`).
    ``None`` outside that fragment (data-dependent loads, float
    arithmetic, unbound symbols).  ``leaf`` maps a ``Variable`` or
    ``Parameter`` to its ``(lo, hi)`` or ``None``; ``bounds`` does the
    endpoint arithmetic, and a rule it cannot spell (a product of two
    non-literal ranges, a negative divisor) yields ``None``.
    """
    def rec(e):
        if _int_literal(e):
            v = bounds.const(e.value)
            return v, v
        if isinstance(e, (Variable, Parameter)):
            return leaf(e)
        if isinstance(e, UnOp):
            r = rec(e.operand)
            return None if r is None else (bounds.neg(r[1]), bounds.neg(r[0]))
        if isinstance(e, Cast):
            if e.dtype.is_float:
                return None
            inner = rec(e.operand)
            if inner is not None:
                return inner
            r = RangeAnalysis.nan_free_range(e)
            return None if r is None else (bounds.const(r.lo),
                                           bounds.const(r.hi))
        if isinstance(e, BinOp):
            left = rec(e.left)
            if left is None:
                return None
            if e.op in ("//", "%"):
                if not _int_literal(e.right) or e.right.value == 0:
                    return None
                m = e.right.value
                if m < 0 and not bounds.negative_divisors:
                    return None
                if e.op == "%":
                    # [0, m) for m > 0, (m, 0] for m < 0
                    return ((bounds.const(0), bounds.const(m - 1)) if m > 0
                            else (bounds.const(m + 1), bounds.const(0)))
                lo, hi = bounds.fdiv(left[0], m), bounds.fdiv(left[1], m)
                return (lo, hi) if m > 0 else (hi, lo)
            right = rec(e.right)
            if right is None:
                return None
            if e.op == "+":
                return (bounds.add(left[0], right[0]),
                        bounds.add(left[1], right[1]))
            if e.op == "-":
                return (bounds.sub(left[0], right[1]),
                        bounds.sub(left[1], right[0]))
            if e.op == "*":
                # by a literal the bounds stay linear
                for a, b in ((e.left, right), (e.right, left)):
                    if _int_literal(a):
                        lo = bounds.scale(a.value, b[0])
                        hi = bounds.scale(a.value, b[1])
                        return (lo, hi) if a.value >= 0 else (hi, lo)
                return bounds.product(left, right)
            return None
        if isinstance(e, Call):
            if e.name not in ("min", "max"):
                return None
            ranges = [rec(a) for a in e.args]
            if not ranges or any(r is None for r in ranges):
                return None
            fold = bounds.min if e.name == "min" else bounds.max
            lo, hi = ranges[0]
            for r in ranges[1:]:
                lo, hi = fold(lo, r[0]), fold(hi, r[1])
            return lo, hi
        if isinstance(e, Select):
            t = rec(e.true_expr)
            f = rec(e.false_expr)
            if t is None or f is None:
                return None
            return bounds.min(t[0], f[0]), bounds.max(t[1], f[1])
        return None

    return rec(expr)


def evaluate_expr(expr,
                  env: Mapping[Hashable, "IntInterval | int"]
                  ) -> "IntInterval | None":
    """:func:`expr_range` over ints: ``env`` maps
    :class:`~repro.lang.constructs.Variable` and
    :class:`~repro.lang.constructs.Parameter` objects to intervals (or
    ints, treated as degenerate intervals)."""
    def leaf(e):
        value = env.get(e)
        if isinstance(value, IntInterval):
            return value.lo, value.hi
        return None if value is None else (value, value)

    rng = expr_range(expr, leaf)
    return None if rng is None else IntInterval(*rng)
