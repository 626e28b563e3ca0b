"""Function and Accumulator — the stages of a pipeline.

A :class:`Function` maps a multi-dimensional integer domain to scalar
values, defined piece-wise by :class:`~repro.lang.constructs.Case` objects.
An :class:`Accumulator` is the stateful variant used for histograms and
other reductions: it is *defined* on a variable domain but *evaluated* over
a reduction domain, folding values in with a combining operator.

:func:`Stencil` is the convenience constructor from the paper for spatial
filters: it expands a weight matrix into an explicit sum of shifted
references, so downstream analyses see ordinary expressions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.lang.constructs import Case, Interval, Variable, _fresh_name
from repro.lang.expr import (
    BoolExpr, Expr, Literal, Reference, TrueCond, wrap,
)
from repro.lang.types import DType


def _check_var_dom(var_dom) -> tuple[tuple[Variable, ...], tuple[Interval, ...]]:
    try:
        variables, intervals = var_dom
    except (TypeError, ValueError):
        raise TypeError(
            "varDom must be a pair ([variables], [intervals])") from None
    variables = tuple(variables) if isinstance(variables, (list, tuple)) \
        else (variables,)
    intervals = tuple(intervals) if isinstance(intervals, (list, tuple)) \
        else (intervals,)
    if len(variables) != len(intervals):
        raise ValueError("varDom needs one interval per variable")
    for v in variables:
        if not isinstance(v, Variable):
            raise TypeError(f"domain labels must be Variables, got {v!r}")
    for ivl in intervals:
        if not isinstance(ivl, Interval):
            raise TypeError(f"domain ranges must be Intervals, got {ivl!r}")
    if len(set(variables)) != len(variables):
        raise ValueError("domain variables must be distinct")
    return variables, intervals


class Function:
    """A pipeline stage mapping an integer domain to scalar values.

    Parameters
    ----------
    varDom:
        A pair ``([variables], [intervals])`` declaring the domain.
    typ:
        The scalar :class:`~repro.lang.types.DType` of the values.
    name:
        Optional stage name (auto-generated otherwise); names appear in the
        pipeline graph, generated code and error messages.

    The body is assigned through :attr:`defn` after construction, as a
    single expression, a list of expressions, or a list of ``Case`` objects
    for piece-wise definitions, exactly as in the paper's examples.
    """

    def __init__(self, varDom, typ: DType, name: str | None = None):
        if not isinstance(typ, DType):
            raise TypeError("Function expects a DType for typ")
        self.variables, self.intervals = _check_var_dom(varDom)
        self.dtype = typ
        self.name = name or _fresh_name("f")
        self._defn: tuple[Case, ...] | None = None

    # -- definition -------------------------------------------------------
    @property
    def defn(self) -> tuple[Case, ...]:
        if self._defn is None:
            raise ValueError(f"function {self.name!r} has no definition yet")
        return self._defn

    @defn.setter
    def defn(self, body) -> None:
        if self._defn is not None:
            raise ValueError(f"function {self.name!r} is already defined")
        if isinstance(body, (Expr, int, float, Case)):
            body = [body]
        cases = []
        for item in body:
            if isinstance(item, Case):
                cases.append(item)
            else:
                cases.append(Case(TrueCond(), wrap(item)))
        if not cases:
            raise ValueError("a definition needs at least one case")
        self._defn = tuple(cases)

    # -- structure --------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.variables)

    def __call__(self, *args) -> Reference:
        if len(args) != self.ndim:
            raise TypeError(
                f"function {self.name!r} has {self.ndim} dimensions, "
                f"accessed with {len(args)} indices")
        return Reference(self, args)

    def __repr__(self) -> str:
        return f"Function({self.name!r}, {self.ndim}D, {self.dtype})"

    def __hash__(self) -> int:
        return id(self)


class Reduction:
    """Combining operators for :class:`Accumulator` definitions."""

    Sum = "sum"
    Min = "min"
    Max = "max"

    ALL = (Sum, Min, Max)


#: Paper-style spellings: ``Accumulate(hist(I(x, y)), 1, Sum)``.
Sum = Reduction.Sum
MinOp = Reduction.Min
MaxOp = Reduction.Max


class Accumulate:
    """The body of an accumulator: fold ``value`` into ``target`` with ``op``.

    ``target`` must be a reference to the accumulator itself; its index
    expressions are evaluated over the reduction domain and may be
    data-dependent, e.g. ``hist(I(x, y))`` for a histogram.
    """

    __slots__ = ("target", "value", "op")

    def __init__(self, target: Reference, value, op: str = Reduction.Sum):
        if not isinstance(target, Reference):
            raise TypeError("Accumulate target must be a function reference")
        if op not in Reduction.ALL:
            raise ValueError(f"unknown reduction operator: {op!r}")
        self.target = target
        self.value = wrap(value)
        self.op = op

    def __repr__(self) -> str:
        return f"Accumulate({self.target!r}, {self.value!r}, {self.op})"


class Accumulator:
    """A reduction stage (histogram-like), per Section 2 of the paper.

    ``redDom`` is the domain iterated during evaluation; ``varDom`` is the
    domain on which the result is defined.  The accumulator is initialised
    to the identity of its combining operator (0 for Sum, +inf/-inf for
    Min/Max) before evaluation.
    """

    def __init__(self, redDom, varDom, typ: DType, name: str | None = None):
        if not isinstance(typ, DType):
            raise TypeError("Accumulator expects a DType for typ")
        self.red_variables, self.red_intervals = _check_var_dom(redDom)
        self.variables, self.intervals = _check_var_dom(varDom)
        if set(self.red_variables) & set(self.variables):
            raise ValueError("reduction and variable domains must not share "
                             "variables")
        self.dtype = typ
        self.name = name or _fresh_name("acc")
        self._defn: Accumulate | None = None

    @property
    def defn(self) -> Accumulate:
        if self._defn is None:
            raise ValueError(f"accumulator {self.name!r} has no definition yet")
        return self._defn

    @defn.setter
    def defn(self, body: Accumulate) -> None:
        if self._defn is not None:
            raise ValueError(f"accumulator {self.name!r} is already defined")
        if not isinstance(body, Accumulate):
            raise TypeError("accumulator definitions use Accumulate(...)")
        if body.target.function is not self:
            raise ValueError("Accumulate target must reference the "
                             "accumulator being defined")
        if len(body.target.args) != self.ndim:
            raise ValueError(
                f"Accumulate target indexes {len(body.target.args)} "
                f"dimensions; accumulator has {self.ndim}")
        self._defn = body

    @property
    def ndim(self) -> int:
        return len(self.variables)

    def __call__(self, *args) -> Reference:
        if len(args) != self.ndim:
            raise TypeError(
                f"accumulator {self.name!r} has {self.ndim} dimensions, "
                f"accessed with {len(args)} indices")
        return Reference(self, args)

    def __repr__(self) -> str:
        return f"Accumulator({self.name!r}, {self.ndim}D, {self.dtype})"

    def __hash__(self) -> int:
        return id(self)


def Stencil(ref: Reference, factor, weights: Sequence,
            origin: Sequence[int] | None = None) -> Expr:
    """Expand a spatial filter into a weighted sum of shifted references.

    ``Stencil(I(x, y), 1.0/12, [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]])``
    produces ``(1/12) * sum_{i,j} w[i][j] * I(x + i - oi, y + j - oj)``
    where ``(oi, oj)`` is the stencil origin (the centre by default).
    Zero weights are skipped.  Works for any dimensionality matching the
    nesting depth of ``weights``.
    """
    if not isinstance(ref, Reference):
        raise TypeError("Stencil expects a function reference like I(x, y)")

    # Determine the shape from the nesting of the weight matrix.
    shape = []
    probe = weights
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        if len(probe) == 0:
            raise ValueError("stencil weights must be non-empty")
        probe = probe[0]
    if len(shape) != len(ref.args):
        raise ValueError(
            f"stencil weights are {len(shape)}-D but the reference has "
            f"{len(ref.args)} indices")

    if origin is None:
        origin = [s // 2 for s in shape]
    origin = list(origin)
    if len(origin) != len(shape):
        raise ValueError("stencil origin must have one entry per dimension")

    def weight_at(idx: tuple[int, ...]):
        w = weights
        for i in idx:
            w = w[i]
        if isinstance(w, (list, tuple)):
            raise ValueError("ragged stencil weight matrix")
        return w

    def all_indices(shape: list[int]):
        if not shape:
            yield ()
            return
        for head in range(shape[0]):
            for rest in all_indices(shape[1:]):
                yield (head,) + rest

    total: Expr | None = None
    for idx in all_indices(shape):
        w = weight_at(idx)
        if w == 0:
            continue
        shifted = [arg + (i - o) if (i - o) != 0 else arg
                   for arg, i, o in zip(ref.args, idx, origin)]
        term = Reference(ref.function, shifted)
        term = term if w == 1 else Literal(w) * term
        total = term if total is None else total + term
    if total is None:
        total = Literal(0)

    factor = wrap(factor)
    if isinstance(factor, Literal) and factor.value == 1:
        return total
    return factor * total
