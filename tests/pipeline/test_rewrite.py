"""Unit tests for the expression/condition rewriting used by inlining:
``rewrite_expr`` over values, ``BoolExpr.rebuild`` over conditions."""

import pytest

from repro.lang import (
    Case, Cast, Condition, Exp, Float, Function, Image, Int, Interval,
    Parameter, Select, Variable,
)
from repro.lang.expr import (
    BinOp, Call, CondAnd, Literal, Reference, TrueCond, UnOp, references,
)
from repro.pipeline.inline import rewrite_expr


@pytest.fixture()
def env():
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    J = Image(Float, [R], name="J")
    x = Variable("x")
    return R, I, J, x


def test_rewrite_replaces_references(env):
    R, I, J, x = env

    def swap(ref):
        if ref.function is I:
            return Reference(J, ref.args)
        return None

    out = rewrite_expr(I(x) + I(x + 1) * 2, swap)
    refs = list(references(out))
    assert all(r.function is J for r in refs)
    assert len(refs) == 2


def test_rewrite_keeps_structure(env):
    R, I, J, x = env
    expr = Exp(-(I(x) * I(x))) + Cast(Float, x) - Select(x > 0, 1.0, 0.0)
    out = rewrite_expr(expr, lambda ref: None)
    # structurally identical: same reference count and node kinds
    assert repr(out) == repr(expr)


def test_rewrite_args_before_replacement(env):
    """Nested references inside index expressions are rewritten first."""
    R, I, J, x = env
    lut = Image(Float, [R], name="lut")
    expr = lut(Cast(Int, I(x) * 3.0))

    seen = []

    def record(ref):
        seen.append(ref.function.name)
        return None

    rewrite_expr(expr, record)
    assert seen == ["I", "lut"]  # innermost first


def test_rewrite_replacement_expression_substituted(env):
    R, I, J, x = env

    def inline_body(ref):
        if ref.function is I:
            return ref.args[0] * 2.0  # body: I(e) -> e * 2
        return None

    out = rewrite_expr(I(x + 1), inline_body)
    assert isinstance(out, BinOp)
    assert repr(out) == repr((x + 1) * 2.0)


def test_rewrite_condition_recurses(env):
    R, I, J, x = env
    cond = (Condition(I(x), ">", 0.5) & Condition(x, "<=", R))

    def swap(ref):
        return Reference(J, ref.args) if ref.function is I else None

    out = cond.rebuild(lambda e: rewrite_expr(e, swap))
    assert isinstance(out, CondAnd)
    assert "J(" in repr(out) and "I(" not in repr(out)


def test_rewrite_condition_true_passthrough():
    t = TrueCond()
    assert t.rebuild(lambda e: rewrite_expr(e, lambda r: None)) is t


def test_rewrite_literals_and_leaves(env):
    R, I, J, x = env
    lit = Literal(5)
    assert rewrite_expr(lit, lambda r: None) is lit
    assert rewrite_expr(x, lambda r: None) is x
    assert rewrite_expr(R, lambda r: None) is R
