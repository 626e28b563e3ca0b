"""Randomized property tests for concrete interval arithmetic.

Seeded ``random``/NumPy generators only (no external property-testing
dependency): each trial draws random intervals and factors — positive
AND negative — evaluates the interval operation, then exhaustively (or
densely) samples concrete points and asserts every concrete result lies
inside the computed bounds.
"""

import random
import re
from fractions import Fraction

from repro.codegen.opt import c_range
from repro.lang import Max, Min, Parameter, Variable
from repro.lang.types import Int
from repro.poly.interval import IntInterval, evaluate_expr

TRIALS = 200


def _interval(rnd: random.Random, span: int = 40) -> IntInterval:
    lo = rnd.randint(-100, 100)
    return IntInterval(lo, lo + rnd.randint(0, span))


def _nonzero(rnd: random.Random, bound: int) -> int:
    d = 0
    while d == 0:
        d = rnd.randint(-bound, bound)
    return d


def test_floordiv_sound_and_tight():
    rnd = random.Random(1234)
    for _ in range(TRIALS):
        ivl = _interval(rnd)
        d = _nonzero(rnd, 8)
        out = ivl.floordiv(d)
        quotients = [v // d for v in range(ivl.lo, ivl.hi + 1)]
        assert all(q in out for q in quotients), (ivl, d, out)
        # flooring division is monotone, so the hull is exact
        assert out.lo == min(quotients) and out.hi == max(quotients)


def test_scale_sound_for_rational_factors():
    rnd = random.Random(99)
    for _ in range(TRIALS):
        ivl = _interval(rnd)
        f = Fraction(rnd.randint(-8, 8), rnd.randint(1, 8))
        out = ivl.scale(f)
        for v in range(ivl.lo, ivl.hi + 1):
            exact = Fraction(v) * f
            assert out.lo <= exact <= out.hi, (ivl, f, out)


def test_scale_integer_hull_is_tight():
    rnd = random.Random(7)
    for _ in range(TRIALS):
        ivl = _interval(rnd)
        f = Fraction(rnd.randint(-8, 8), rnd.randint(1, 8))
        out = ivl.scale(f)
        exacts = [Fraction(v) * f for v in (ivl.lo, ivl.hi)]
        lo, hi = min(exacts), max(exacts)
        # integer hull: floor/ceil of the exact rational endpoints
        assert hi <= out.hi < hi + 1
        assert lo - 1 < out.lo <= lo


def _random_cases(rnd: random.Random):
    """One trial's random expression trees over ``x``, ``y`` and ``P``,
    each with its concrete Python evaluation, plus the bindings."""
    x, y = Variable("x"), Variable("y")
    P = Parameter(Int, "P")
    a, b = rnd.randint(-5, 5), rnd.randint(-5, 5)
    c = rnd.randint(-10, 10)
    d = _nonzero(rnd, 6)
    m = _nonzero(rnd, 9)
    p = rnd.randint(-20, 20)
    xr = IntInterval(rnd.randint(-20, 20), rnd.randint(21, 40))
    yr = IntInterval(rnd.randint(-20, 20), rnd.randint(21, 40))

    base = x * a + y * b + c + P
    cases = [
        (base, lambda vx, vy: vx * a + vy * b + c + p),
        (base // d, lambda vx, vy: (vx * a + vy * b + c + p) // d),
        (base % m, lambda vx, vy: (vx * a + vy * b + c + p) % m),
        (Min(x * a, y * b) + Max(x, y),
         lambda vx, vy: min(vx * a, vy * b) + max(vx, vy)),
        (-(x * a) - y,
         lambda vx, vy: -(vx * a) - vy),
    ]
    return (x, y, P), (xr, yr, p), cases


def test_evaluate_expr_affine_floordiv_mod():
    """Random small expression trees: every concrete evaluation lands in
    the interval ``evaluate_expr`` derives."""
    rnd = random.Random(2024)
    for _ in range(TRIALS):
        (x, y, P), (xr, yr, p), cases = _random_cases(rnd)
        env = {x: xr, y: yr, P: p}
        samples = [(vx, vy)
                   for vx in (xr.lo, (xr.lo + xr.hi) // 2, xr.hi)
                   for vy in (yr.lo, (yr.lo + yr.hi) // 2, yr.hi)]
        samples += [(rnd.randint(xr.lo, xr.hi), rnd.randint(yr.lo, yr.hi))
                    for _ in range(5)]
        for expr, concrete in cases:
            out = evaluate_expr(expr, env)
            assert out is not None, expr
            for vx, vy in samples:
                got = concrete(vx, vy)
                assert got in out, (expr, vx, vy, got, out)


class _Namer:
    @staticmethod
    def param(p):
        return p.name


#: Python meanings of the C runtime helpers a ``c_range`` bound calls
C_HELPERS = {"fdiv": lambda a, m: a // m, "pmod": lambda a, m: a % m,
             "imin": min, "imax": max}


def _eval_c(bound: str, names: dict) -> int:
    """Evaluate a ``c_range`` bound string in Python (``5L`` -> ``5``)."""
    return eval(re.sub(r"\b(\d+)L\b", r"\1", bound),
                {"__builtins__": {}}, {**C_HELPERS, **names})


def test_c_bounds_agree_with_int_bounds():
    """The C-string bound type spells the int bound type's result: every
    ``c_range`` bound, evaluated at the sampled loop bounds, equals the
    ``evaluate_expr`` bound.  Only a negative divisor, which the C
    helpers do not take, leaves the C side without a range."""
    rnd = random.Random(2024)
    for _ in range(TRIALS):
        (x, y, P), (xr, yr, p), cases = _random_cases(rnd)
        env = {x: xr, y: yr, P: p}
        var_bounds = {id(x): ("x_lo", "x_hi"), id(y): ("y_lo", "y_hi")}
        names = {"x_lo": xr.lo, "x_hi": xr.hi, "y_lo": yr.lo,
                 "y_hi": yr.hi, "P": p}
        for expr, _ in cases:
            want = evaluate_expr(expr, env)
            got = c_range(expr, _Namer, var_bounds)
            if got is None:
                assert expr.op in ("//", "%") and expr.right.value < 0, expr
                continue
            assert (_eval_c(got[0], names), _eval_c(got[1], names)) == \
                (want.lo, want.hi), (expr, got)


def test_evaluate_expr_rejects_zero_divisor_and_unbound():
    x = Variable("x")
    env = {x: IntInterval(0, 10)}
    assert evaluate_expr(x // 0, env) is None
    assert evaluate_expr(x % 0, env) is None
    assert evaluate_expr(Variable("unbound") + 1, env) is None


def test_evaluate_expr_negative_divisor_directed():
    x = Variable("x")
    env = {x: IntInterval(1, 7)}
    out = evaluate_expr(x // -2, env)
    assert (out.lo, out.hi) == (-4, -1)
    out = evaluate_expr(x % -3, env)
    assert (out.lo, out.hi) == (-2, 0)
