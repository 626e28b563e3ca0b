"""Unit tests for the expression AST."""

import pytest

from repro.lang import (
    Case, Cast, Condition, Exp, Float, Function, Image, Int, Interval,
    Literal, Min, Parameter, Select, Variable,
)
from repro.lang.expr import (
    BinOp, CondAnd, CondNot, CondOr, Reference, TrueCond, UnOp,
    condition_references, references, walk, wrap,
)


def test_wrap_numbers():
    lit = wrap(3)
    assert isinstance(lit, Literal) and lit.value == 3
    lit = wrap(2.5)
    assert isinstance(lit, Literal) and lit.value == 2.5


def test_wrap_passthrough():
    x = Variable("x")
    assert wrap(x) is x


def test_wrap_rejects_bool_and_junk():
    with pytest.raises(TypeError):
        wrap(True)
    with pytest.raises(TypeError):
        wrap("hello")


def test_arithmetic_builds_binops():
    x, y = Variable("x"), Variable("y")
    e = 2 * x + y - 1
    assert isinstance(e, BinOp) and e.op == "-"
    assert isinstance(e.left, BinOp) and e.left.op == "+"


def test_reflected_operators():
    x = Variable("x")
    e = 1 - x
    assert isinstance(e, BinOp)
    assert isinstance(e.left, Literal) and e.left.value == 1


def test_floordiv_and_mod():
    x = Variable("x")
    assert (x // 2).op == "//"
    assert (x % 3).op == "%"


def test_negation():
    x = Variable("x")
    e = -x
    assert isinstance(e, UnOp) and e.operand is x


def test_unsupported_unary_op_rejected():
    with pytest.raises(ValueError):
        UnOp("~", Variable("x"))


def test_unsupported_binary_op_rejected():
    with pytest.raises(ValueError):
        BinOp("**", Literal(1), Literal(2))


def test_comparisons_build_conditions():
    x = Variable("x")
    c = x >= 1
    assert isinstance(c, Condition) and c.op == ">="


def test_condition_conjunction_disjunction():
    x = Variable("x")
    c = (x >= 1) & (x <= 10)
    assert isinstance(c, CondAnd)
    d = (x < 0) | (x > 5)
    assert isinstance(d, CondOr)
    n = ~(x < 0)
    assert isinstance(n, CondNot)


def test_condition_mixing_with_non_condition_raises():
    x = Variable("x")
    with pytest.raises(TypeError):
        (x >= 1) & x  # type: ignore[operator]


def test_conjuncts_flattening():
    x = Variable("x")
    c = (x >= 1) & (x <= 10) & (x != 5 if False else (x >= 0))
    terms = list(c.conjuncts())
    assert len(terms) == 3


def test_reference_via_call():
    x, y = Variable("x"), Variable("y")
    R, C = Parameter(Int, "R"), Parameter(Int, "C")
    I = Image(Float, [R, C], name="I")
    ref = I(x, y)
    assert isinstance(ref, Reference)
    assert ref.function is I
    assert len(ref.args) == 2


def test_reference_arity_checked():
    R = Parameter(Int, "R")
    I = Image(Float, [R, R], name="I")
    with pytest.raises(TypeError):
        I(Variable("x"))


def test_select_requires_condition():
    x = Variable("x")
    with pytest.raises(TypeError):
        Select(x, 1, 2)  # type: ignore[arg-type]
    sel = Select(x > 0, x, -x)
    assert sel.true_expr is x


def test_cast_requires_dtype():
    with pytest.raises(TypeError):
        Cast("float", Literal(1))  # type: ignore[arg-type]
    c = Cast(Float, 3)
    assert c.dtype is Float


def test_math_call_names_validated():
    from repro.lang.expr import Call
    with pytest.raises(ValueError):
        Call("frobnicate", [Literal(1)])
    assert Exp(1.0).name == "exp"
    assert Min(1, 2).name == "min"


def test_walk_visits_all_nodes():
    x, y = Variable("x"), Variable("y")
    e = 2 * x + y
    kinds = [type(n).__name__ for n in walk(e)]
    assert "BinOp" in kinds and "Literal" in kinds and "Variable" in kinds


def test_references_traversal():
    x, y = Variable("x"), Variable("y")
    R = Parameter(Int, "R")
    I = Image(Float, [R, R], name="I")
    e = I(x, y) * 2 + I(x + 1, y)
    refs = list(references(e))
    assert len(refs) == 2
    assert all(r.function is I for r in refs)


def test_nested_reference_in_args_found():
    x = Variable("x")
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    lut = Image(Float, [R], name="lut")
    e = lut(Cast(Int, I(x)))
    refs = list(references(e))
    assert {r.function for r in refs} == {I, lut}


def test_condition_references():
    x = Variable("x")
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    c = Condition(I(x), ">", 0.5)
    refs = list(condition_references(c))
    assert len(refs) == 1 and refs[0].function is I


def test_substitute_replaces_variables():
    x, y = Variable("x"), Variable("y")
    e = 2 * x + 1
    e2 = e.substitute({x: y})
    names = {n.name for n in walk(e2) if isinstance(n, Variable)}
    assert names == {"y"}


def test_substitute_in_select_and_condition():
    x, y = Variable("x"), Variable("y")
    sel = Select(x > 0, x, 0)
    sel2 = sel.substitute({x: y})
    assert sel2.true_expr is y
    assert sel2.condition.lhs is y


def test_expr_hashable_as_dict_key():
    x = Variable("x")
    e = x + 1
    d = {e: "value"}
    assert d[e] == "value"


def test_true_cond_repr_and_conjuncts():
    t = TrueCond()
    assert list(t.conjuncts()) == [t]
    assert repr(t) == "True"


def _every_node_kind():
    """One node of every ``Expr`` and ``BoolExpr`` kind, with children."""
    x, y = Variable("x"), Variable("y")
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    cond = Condition(x, ">=", 1)
    exprs = [Literal(3), x, R, x + 1, -x, Min(x, y), Cast(Int, x * 2),
             Select(cond & (y < R), x, y), I(x // 2)]
    conds = [cond, cond & (y < R), cond | (y < R), ~cond, TrueCond()]
    return exprs, conds


def test_identity_rebuild_returns_the_node():
    exprs, conds = _every_node_kind()
    for node in [*exprs, *conds]:
        assert node.rebuild(lambda e: e) is node, node


def test_rebuild_copies_only_the_changed_path():
    x, y = Variable("x"), Variable("y")
    kept = Min(y, 2)
    e = kept + x * 3
    e2 = e.substitute({x: y})
    assert e2 is not e and e2.right is not e.right
    assert e2.left is kept  # the untouched subtree is shared, not copied
    assert e2.right.left is y and e.right.left is x  # the original intact


def test_substitute_with_nothing_to_replace_returns_self():
    exprs, conds = _every_node_kind()
    for node in [*exprs, *conds]:
        assert node.substitute({}) is node, node
