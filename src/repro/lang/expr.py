"""Expression AST of the PolyMage DSL.

Functions, images and scalar parameters combine into expression trees via
standard Python operators.  The tree is deliberately small: literals, binary
and unary arithmetic, math-function calls, casts, selections, and
:class:`Reference` nodes that access another function's value at a
(possibly affine, possibly data-dependent) coordinate.

Boolean conditions (used by ``Case`` and ``Select``) form a parallel little
tree: :class:`Condition` for a single comparison, combined into
conjunctions/disjunctions with ``&`` and ``|`` as in the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.lang import types as dsl_types
from repro.lang.types import DType

_NUMERIC = (int, float)

#: Binary operators supported in expressions, in C spelling.
BINARY_OPS = ("+", "-", "*", "/", "//", "%")

#: Comparison operators supported in conditions.
COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")

#: Math builtins understood by both backends.
MATH_FUNCTIONS = (
    "exp", "log", "sqrt", "sin", "cos", "tan", "atan", "abs",
    "floor", "ceil", "pow", "min", "max",
)


def wrap(value: "Expr | int | float") -> "Expr":
    """Coerce a Python number to a :class:`Literal`; pass exprs through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not DSL values; use Condition")
    if isinstance(value, _NUMERIC):
        return Literal(value)
    raise TypeError(f"cannot use {value!r} in a DSL expression")


class Expr:
    """Base class for all value expressions."""

    __slots__ = ()

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, wrap(other))

    def __radd__(self, other):
        return BinOp("+", wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, wrap(other))

    def __rsub__(self, other):
        return BinOp("-", wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, wrap(other))

    def __rmul__(self, other):
        return BinOp("*", wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", wrap(other), self)

    def __floordiv__(self, other):
        return BinOp("//", self, wrap(other))

    def __rfloordiv__(self, other):
        return BinOp("//", wrap(other), self)

    def __mod__(self, other):
        return BinOp("%", self, wrap(other))

    def __rmod__(self, other):
        return BinOp("%", wrap(other), self)

    def __neg__(self):
        return UnOp("-", self)

    def __pos__(self):
        return self

    # -- comparisons produce conditions ----------------------------------
    def __lt__(self, other):
        return Condition(self, "<", wrap(other))

    def __le__(self, other):
        return Condition(self, "<=", wrap(other))

    def __gt__(self, other):
        return Condition(self, ">", wrap(other))

    def __ge__(self, other):
        return Condition(self, ">=", wrap(other))

    # NOTE: __eq__/__ne__ keep identity semantics so exprs remain hashable
    # and usable as dict keys.  Use Condition(a, '==', b) for equality tests.

    def children(self) -> Iterable["Expr"]:
        """Direct sub-expressions of this node."""
        return ()

    def rebuild(self, fn: Callable[["Expr"], "Expr"]) -> "Expr":
        """A node of this kind whose direct value sub-expressions (a
        ``Select``'s condition operands included) are ``fn`` of the old
        ones.  When ``fn`` returns every child itself, the node returns
        itself too (a leaf always does), so a rewrite that changes
        nothing allocates nothing and callers can test ``new is old``.
        Every tree rewrite is built on this one structural copy."""
        return self

    def substitute(self, mapping: dict["Expr", "Expr"]) -> "Expr":
        """Return a copy with occurrences of keys replaced by values
        (``self`` when no key occurs)."""
        def sub(e: Expr) -> Expr:
            return mapping[e] if e in mapping else e.rebuild(sub)
        return sub(self)


def _rebuilt(args: tuple[Expr, ...], fn) -> list[Expr] | None:
    """``fn`` of each of ``args``, or ``None`` when it returned them all
    unchanged."""
    new = [fn(a) for a in args]
    if all(a is b for a, b in zip(new, args)):
        return None
    return new


class Literal(Expr):
    """An integer or floating point constant."""

    __slots__ = ("value",)

    def __init__(self, value: int | float):
        self.value = value

    def __repr__(self) -> str:
        return repr(self.value)


class BinOp(Expr):
    """A binary arithmetic operation.

    ``//`` is floor (integer) division, used for upsampling accesses such as
    ``g((x + sx) // 2)``; ``/`` is true division on values.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in BINARY_OPS:
            raise ValueError(f"unsupported binary operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def rebuild(self, fn):
        left, right = fn(self.left), fn(self.right)
        if left is self.left and right is self.right:
            return self
        return BinOp(self.op, left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class UnOp(Expr):
    """A unary operation (currently only negation)."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr):
        if op != "-":
            raise ValueError(f"unsupported unary operator: {op!r}")
        self.op = op
        self.operand = operand

    def children(self):
        return (self.operand,)

    def rebuild(self, fn):
        operand = fn(self.operand)
        return self if operand is self.operand else UnOp(self.op, operand)

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


class Call(Expr):
    """A call to a math builtin, e.g. ``Exp(x)`` or ``Min(a, b)``."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Iterable[Expr]):
        if name not in MATH_FUNCTIONS:
            raise ValueError(f"unknown math function: {name!r}")
        self.name = name
        self.args = tuple(wrap(a) for a in args)

    def children(self):
        return self.args

    def rebuild(self, fn):
        args = _rebuilt(self.args, fn)
        return self if args is None else Call(self.name, args)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


class Cast(Expr):
    """An explicit conversion of a value to a DSL scalar type."""

    __slots__ = ("dtype", "operand")

    def __init__(self, dtype: DType, operand: Expr | int | float):
        if not isinstance(dtype, DType):
            raise TypeError("Cast expects a DType as its first argument")
        self.dtype = dtype
        self.operand = wrap(operand)

    def children(self):
        return (self.operand,)

    def rebuild(self, fn):
        operand = fn(self.operand)
        return self if operand is self.operand else Cast(self.dtype, operand)

    def __repr__(self) -> str:
        return f"Cast({self.dtype}, {self.operand!r})"


class Select(Expr):
    """``Select(cond, then, else)`` — a value-level conditional."""

    __slots__ = ("condition", "true_expr", "false_expr")

    def __init__(self, condition: "BoolExpr", true_expr, false_expr):
        if not isinstance(condition, BoolExpr):
            raise TypeError("Select condition must be a Condition expression")
        self.condition = condition
        self.true_expr = wrap(true_expr)
        self.false_expr = wrap(false_expr)

    def children(self):
        return (self.true_expr, self.false_expr) + tuple(
            self.condition.value_children())

    def rebuild(self, fn):
        condition = self.condition.rebuild(fn)
        true_expr, false_expr = fn(self.true_expr), fn(self.false_expr)
        if (condition is self.condition and true_expr is self.true_expr
                and false_expr is self.false_expr):
            return self
        return Select(condition, true_expr, false_expr)

    def __repr__(self) -> str:
        return (f"Select({self.condition!r}, {self.true_expr!r}, "
                f"{self.false_expr!r})")


class Reference(Expr):
    """An access ``f(e0, e1, ...)`` to a function, image or accumulator."""

    __slots__ = ("function", "args")

    def __init__(self, function: Any, args: Iterable[Expr | int | float]):
        self.function = function
        self.args = tuple(wrap(a) for a in args)

    def children(self):
        return self.args

    def rebuild(self, fn):
        args = _rebuilt(self.args, fn)
        return self if args is None else Reference(self.function, args)

    def __repr__(self) -> str:
        return f"{self.function.name}({', '.join(map(repr, self.args))})"


# ---------------------------------------------------------------------------
# Conditions
# ---------------------------------------------------------------------------

class BoolExpr:
    """Base class for boolean condition trees used by Case and Select."""

    __slots__ = ()

    def __and__(self, other):
        if not isinstance(other, BoolExpr):
            raise TypeError("conditions combine only with other conditions")
        return CondAnd(self, other)

    def __or__(self, other):
        if not isinstance(other, BoolExpr):
            raise TypeError("conditions combine only with other conditions")
        return CondOr(self, other)

    def __invert__(self):
        return CondNot(self)

    def value_children(self) -> Iterable[Expr]:
        """All value expressions referenced inside this condition."""
        return ()

    def rebuild(self, fn: Callable[[Expr], Expr]) -> "BoolExpr":
        """This condition tree with ``fn`` applied to each comparison
        operand; ``self`` when no operand changes (see
        :meth:`Expr.rebuild`)."""
        return self

    def substitute(self, mapping: dict[Expr, Expr]) -> "BoolExpr":
        return self.rebuild(lambda e: e.substitute(mapping))

    def conjuncts(self) -> Iterator["BoolExpr"]:
        """Iterate over top-level AND-ed terms (self if not a conjunction)."""
        yield self


class Condition(BoolExpr):
    """A single comparison ``lhs op rhs``.

    Matches the paper's ``Condition(x, '>=', 1)`` form, and is also produced
    by Python comparison operators on expressions (``x >= 1``).
    """

    __slots__ = ("lhs", "op", "rhs")

    def __init__(self, lhs, op: str, rhs):
        if op not in COMPARE_OPS:
            raise ValueError(f"unsupported comparison operator: {op!r}")
        self.lhs = wrap(lhs)
        self.op = op
        self.rhs = wrap(rhs)

    def value_children(self):
        return (self.lhs, self.rhs)

    def rebuild(self, fn):
        lhs, rhs = fn(self.lhs), fn(self.rhs)
        if lhs is self.lhs and rhs is self.rhs:
            return self
        return Condition(lhs, self.op, rhs)

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class CondAnd(BoolExpr):
    """Conjunction of two conditions."""

    __slots__ = ("left", "right")

    def __init__(self, left: BoolExpr, right: BoolExpr):
        self.left = left
        self.right = right

    def value_children(self):
        return tuple(self.left.value_children()) + tuple(
            self.right.value_children())

    def rebuild(self, fn):
        left, right = self.left.rebuild(fn), self.right.rebuild(fn)
        if left is self.left and right is self.right:
            return self
        return CondAnd(left, right)

    def conjuncts(self):
        yield from self.left.conjuncts()
        yield from self.right.conjuncts()

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


class CondOr(BoolExpr):
    """Disjunction of two conditions."""

    __slots__ = ("left", "right")

    def __init__(self, left: BoolExpr, right: BoolExpr):
        self.left = left
        self.right = right

    def value_children(self):
        return tuple(self.left.value_children()) + tuple(
            self.right.value_children())

    def rebuild(self, fn):
        left, right = self.left.rebuild(fn), self.right.rebuild(fn)
        if left is self.left and right is self.right:
            return self
        return CondOr(left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


class CondNot(BoolExpr):
    """Negation of a condition."""

    __slots__ = ("operand",)

    def __init__(self, operand: BoolExpr):
        self.operand = operand

    def value_children(self):
        return tuple(self.operand.value_children())

    def rebuild(self, fn):
        operand = self.operand.rebuild(fn)
        return self if operand is self.operand else CondNot(operand)

    def __repr__(self) -> str:
        return f"(~{self.operand!r})"


class TrueCond(BoolExpr):
    """The always-true condition; used for single-expression definitions."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "True"


# ---------------------------------------------------------------------------
# Convenience math constructors (capitalised to avoid builtin shadowing)
# ---------------------------------------------------------------------------

def _math(name: str) -> Callable[..., Call]:
    def make(*args) -> Call:
        return Call(name, args)
    make.__name__ = name.capitalize()
    make.__doc__ = f"DSL math builtin ``{name}``."
    return make


Exp = _math("exp")
Log = _math("log")
Sqrt = _math("sqrt")
Sin = _math("sin")
Cos = _math("cos")
Tan = _math("tan")
Atan = _math("atan")
Abs = _math("abs")
Floor = _math("floor")
Ceil = _math("ceil")
Pow = _math("pow")
Min = _math("min")
Max = _math("max")


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, depth first, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def references(expr: Expr) -> Iterator[Reference]:
    """Yield every :class:`Reference` in ``expr`` (including nested ones)."""
    for node in walk(expr):
        if isinstance(node, Reference):
            yield node


def condition_references(cond: BoolExpr) -> Iterator[Reference]:
    """Yield every :class:`Reference` inside a condition tree."""
    for value in cond.value_children():
        yield from references(value)
