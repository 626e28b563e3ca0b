"""``edge_dependences`` on per-edge summaries vs a tap-by-tap reference.

The compiler derives each edge's dependence ranges from a summary built
once per :class:`PipelineIR` (unit-scale hull per producer dimension,
scaled by the producer's transform).  The reference below is the loop it
replaced: hull every tap under the actual scales.  They must agree —
ranges, and the ``NonConstantDependence`` text when a constant index
meets a parametric extent — for random stencil, up/down-sampling and
constant-index accesses under random positive rational scales, and on
every edge of random fuzzer DAGs.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.align_scale import GroupTransforms, StageTransform
from repro.compiler.deps import (
    ZERO_DEP, DepRange, NonConstantDependence, _consumer_dim_for,
    _constant_extent, edge_dependences,
)
from repro.compiler.plan import compile_plan
from repro.lang import (
    Float, Function, Image, Int, Interval, Parameter, Variable,
)
from repro.pipeline.graph import PipelineGraph
from repro.pipeline.ir import PipelineIR

from tests.serve import fuzzlib


def reference_edge_ranges(ir, transforms, producer, consumer):
    """Tap by tap: one range per index of every access, hulled."""
    consumer_ir = ir[consumer]
    ct, pt = transforms[consumer], transforms[producer]
    per_dim = [None] * transforms.ndim
    for access in consumer_ir.accesses_to(producer):
        for d, form in enumerate(access.forms):
            group_dim, s_p = pt.dim_map[d], pt.scales[d]
            m, b = form.divisor, form.aff.const
            if form.aff.variables():
                lo = -s_p * b / m
                hi = lo + s_p * Fraction(m - 1, m)
            else:
                try:
                    j = _consumer_dim_for(consumer_ir, ct, group_dim)
                    v_lo, v_hi = _constant_extent(consumer_ir, j)
                except NonConstantDependence as exc:
                    raise exc.with_context(
                        producer=producer.name, consumer=consumer_ir.name,
                        dim=d, access=repr(form)) from None
                k = s_p * (b // m if m > 1 else b)
                lo, hi = ct.scales[j] * v_lo - k, ct.scales[j] * v_hi - k
            rng = DepRange(lo, hi)
            per_dim[group_dim] = rng if per_dim[group_dim] is None \
                else per_dim[group_dim].hull(rng)
    return tuple(r if r is not None else ZERO_DEP for r in per_dim)


def outcome(fn, *args):
    try:
        return fn(*args)
    except NonConstantDependence as exc:
        return ("NonConstantDependence", str(exc), exc.producer,
                exc.consumer, exc.dim, exc.access)


# one index of a tap: ("var", a, b, m) for floor((a*x + b) / m), or
# ("const", k) for the constant index k
var_index = st.tuples(st.just("var"), st.integers(1, 4),
                      st.integers(-6, 6), st.integers(1, 4))
row_index = st.one_of(var_index, var_index, var_index,
                      st.tuples(st.just("const"), st.integers(0, 2)))
taps = st.lists(st.tuples(row_index, var_index), min_size=1, max_size=7)
scale = st.fractions(min_value=Fraction(1, 8), max_value=8,
                     max_denominator=8)


def build_edge(tap_list, parametric_rows: bool):
    """``f(c, x)`` reading ``p`` through ``tap_list``; ``c`` spans a
    constant extent unless ``parametric_rows``."""
    R = Parameter(Int, "R")
    I = Image(Float, [3, R], name="I")
    c, x = Variable("c"), Variable("x")
    rows = Interval(0, R - 1, 1) if parametric_rows else Interval(0, 2, 1)
    cols = Interval(0, R - 1, 1)
    p = Function(varDom=([c, x], [rows, cols]), typ=Float, name="p")
    p.defn = I(c, x)
    f = Function(varDom=([c, x], [rows, cols]), typ=Float, name="f")

    def index_expr(spec, var):
        if spec[0] == "const":
            return spec[1]
        _, a, b, m = spec
        return (a * var + b) // m if m > 1 else a * var + b

    expr = None
    for i0, i1 in tap_list:
        tap = p(index_expr(i0, c), index_expr(i1, x))
        expr = tap if expr is None else expr + tap
    f.defn = expr
    return p, f


@settings(max_examples=150, deadline=None)
@given(taps, st.booleans(), st.tuples(scale, scale, scale, scale),
       st.booleans())
def test_summary_ranges_equal_tap_by_tap(tap_list, parametric_rows, scales,
                                         swap_dims):
    p, f = build_edge(tap_list, parametric_rows)
    ir = PipelineIR(PipelineGraph([f]))
    dim_map = (1, 0) if swap_dims else (0, 1)
    transforms = GroupTransforms(f, {
        f: StageTransform((0, 1), scales[:2]),
        p: StageTransform(dim_map, scales[2:])})
    want = outcome(reference_edge_ranges, ir, transforms, p, f)
    got = outcome(
        lambda *a: edge_dependences(*a).ranges, ir, transforms, p, f)
    assert got == want


def test_constant_index_over_parametric_extent_keeps_its_message():
    p, f = build_edge([(("const", 1), ("var", 1, 0, 1)),
                       (("var", 1, -1, 1), ("var", 2, 1, 2))],
                      parametric_rows=True)
    ir = PipelineIR(PipelineGraph([f]))
    unit = (Fraction(1), Fraction(1))
    transforms = GroupTransforms(f, {f: StageTransform((0, 1), unit),
                                     p: StageTransform((0, 1), unit)})
    with pytest.raises(NonConstantDependence) as info:
        edge_dependences(ir, transforms, p, f)
    assert str(info.value) == (
        "[f -> p, dim 0, access AccessForm(1)] dimension 0 of 'f' has "
        "parametric extent; constant-index dependence is unbounded")


@pytest.mark.parametrize("seed", range(12))
def test_fuzzer_dags_agree_on_every_grouped_edge(seed):
    spec = fuzzlib.random_spec(np.random.default_rng(seed))
    outputs, values, _, _ = fuzzlib.build_pipeline(spec)
    plan = compile_plan(outputs, values, spec.options())
    checked = 0
    for gp in plan.group_plans:
        if gp.transforms is None:
            continue
        members = set(gp.ordered_stages)
        for consumer in gp.ordered_stages:
            for producer in plan.ir.graph.producers(consumer):
                if producer in members:
                    dep = edge_dependences(plan.ir, gp.transforms,
                                           producer, consumer)
                    assert dep.ranges == reference_edge_ranges(
                        plan.ir, gp.transforms, producer, consumer)
                    checked += 1
    assert checked or len(plan.group_plans) == len(plan.ir.stages)


def test_verify_rederives_without_the_summaries(monkeypatch):
    """``repro.verify`` is an independent witness: it must reach its
    verdict from the accesses themselves, never through the summaries
    the compiler's own analysis rests on."""
    from repro.apps import ALL_APPS
    from repro.verify import verify_plan
    app = ALL_APPS["pyramid_blend"]()
    plan = compile_plan(app.outputs, app.default_estimates)

    def forbidden(self, producer, consumer):
        raise AssertionError("verify consulted an edge summary")
    monkeypatch.setattr(PipelineIR, "edge_summary", forbidden)
    assert verify_plan(plan).ok
