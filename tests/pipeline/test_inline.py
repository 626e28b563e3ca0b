"""Tests for point-wise inlining."""

import pytest

from repro.apps import ALL_APPS
from repro.apps.harris import build_pipeline
from repro.lang import (
    Case, Condition, Float, Function, Image, Int, Interval, Parameter,
    Variable,
)
from repro.lang.expr import references
from repro.pipeline.graph import PipelineGraph
from repro.pipeline.inline import find_inlinable, inline_pipeline
from repro.pipeline.ir import PipelineIR


def test_harris_inlinable_set():
    """Point-wise stages Ixx/Ixy/Iyy/det/trace are inlined; stencils stay."""
    app = build_pipeline()
    ir = PipelineIR(PipelineGraph(app.outputs))
    R, C = app.params["R"], app.params["C"]
    names = {s.name for s in find_inlinable(ir, {R: 256, C: 256})}
    assert names == {"Ixx", "Ixy", "Iyy", "det", "trace"}


def test_harris_inlined_graph_matches_figure7():
    """After inlining the remaining stages are exactly the scratchpad/live
    set of the paper's Figure 7: Ix, Iy, Sxx, Sxy, Syy, harris."""
    app = build_pipeline()
    R, C = app.params["R"], app.params["C"]
    result = inline_pipeline(app.outputs, {R: 256, C: 256})
    graph = PipelineGraph(result.outputs)
    assert {s.name for s in graph.stages} == {
        "Ix", "Iy", "Sxx", "Sxy", "Syy", "harris"}
    assert len(result.inlined) == 5


def test_inlined_harris_output_references_s_stages():
    app = build_pipeline()
    R, C = app.params["R"], app.params["C"]
    result = inline_pipeline(app.outputs, {R: 256, C: 256})
    harris = result.outputs[0]
    producers = {r.function.name for r in references(harris.defn[0].expression)}
    assert producers == {"Sxx", "Syy", "Sxy"}


def test_inline_does_not_mutate_originals():
    app = build_pipeline()
    R, C = app.params["R"], app.params["C"]
    before = app.outputs[0].defn
    inline_pipeline(app.outputs, {R: 256, C: 256})
    assert app.outputs[0].defn is before
    # the original graph still has 11 stages
    assert len(PipelineGraph(app.outputs)) == 11


def test_inline_substitutes_with_offset_access():
    """A stencil consumer of a point-wise producer gets shifted copies."""
    R = Parameter(Int, "R")
    I = Image(Float, [R + 2], name="I")
    x = Variable("x")
    dom = Interval(0, R + 1, 1)
    sq = Function(varDom=([x], [dom]), typ=Float, name="sq")
    sq.defn = I(x) * I(x)
    blur = Function(varDom=([x], [dom]), typ=Float, name="blur")
    blur.defn = [Case(Condition(x, ">=", 1) & Condition(x, "<=", R),
                      sq(x - 1) + sq(x) + sq(x + 1))]
    result = inline_pipeline([blur], {R: 64})
    graph = PipelineGraph(result.outputs)
    assert {s.name for s in graph.stages} == {"blur"}
    expr = result.outputs[0].defn[0].expression
    refs = list(references(expr))
    # three copies of I(x)*I(x) at offsets -1, 0, +1 => six I references
    assert len(refs) == 6 and all(r.function is I for r in refs)


def test_inline_skipped_when_region_not_covered():
    """Producer defined on a narrower region than consumer accesses."""
    R = Parameter(Int, "R")
    I = Image(Float, [R + 2], name="I")
    x = Variable("x")
    dom = Interval(0, R + 1, 1)
    p = Function(varDom=([x], [dom]), typ=Float, name="p")
    p.defn = [Case(Condition(x, ">=", 5) & Condition(x, "<=", R), I(x) * 2)]
    q = Function(varDom=([x], [dom]), typ=Float, name="q")
    q.defn = p(x)  # accesses x in [0, R+1], outside p's case region
    result = inline_pipeline([q], {R: 64})
    assert {s.name for s in PipelineGraph(result.outputs).stages} == {"p", "q"}


def test_outputs_never_inlined():
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    x = Variable("x")
    dom = Interval(0, R - 1, 1)
    a = Function(varDom=([x], [dom]), typ=Float, name="a")
    a.defn = I(x) + 1
    b = Function(varDom=([x], [dom]), typ=Float, name="b")
    b.defn = a(x) * 2
    result = inline_pipeline([a, b], {R: 64})
    names = {s.name for s in PipelineGraph(result.outputs).stages}
    assert names == {"a", "b"}


def test_chain_of_pointwise_fully_folds():
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    x = Variable("x")
    dom = Interval(0, R - 1, 1)
    prev: Function | Image = I
    stages = []
    for i in range(4):
        f = Function(varDom=([x], [dom]), typ=Float, name=f"s{i}")
        f.defn = prev(x) + 1
        stages.append(f)
        prev = f
    result = inline_pipeline([stages[-1]], {R: 64})
    graph = PipelineGraph(result.outputs)
    assert {s.name for s in graph.stages} == {"s3"}
    # s3 = ((I(x)+1)+1)+1)+1 — one I reference
    refs = list(references(result.outputs[0].defn[0].expression))
    assert len(refs) == 1 and refs[0].function is I


def test_self_referential_stage_not_inlined():
    R = Parameter(Int, "R")
    t, x = Variable("t"), Variable("x")
    f = Function(varDom=([t, x], [Interval(0, 7, 1), Interval(0, R - 1, 1)]),
                 typ=Float, name="f")
    f.defn = [Case(t >= 1, f(t - 1, x) + 1), Case(t < 1, 0.0)]
    g = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float, name="g")
    g.defn = f(7, x)
    result = inline_pipeline([g], {R: 64})
    names = {s.name for s in PipelineGraph(result.outputs).stages}
    assert names == {"f", "g"}


def test_cloned_self_referential_stage_reads_its_clone():
    """A time-iterated stage downstream of an inlined one is cloned, and
    the clone's own earlier values are read from the clone."""
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    t, x = Variable("t"), Variable("x")
    sq = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float,
                  name="sq")
    sq.defn = I(x) * I(x)
    f = Function(varDom=([t, x], [Interval(0, 7, 1), Interval(0, R - 1, 1)]),
                 typ=Float, name="f")
    f.defn = [Case(t >= 1, f(t - 1, x) + sq(x)), Case(t < 1, sq(x))]
    result = inline_pipeline([f], {R: 64})
    assert [s.name for s in result.inlined] == ["sq"]
    clone = result.outputs[0]
    assert clone is not f and result.replacements[f] is clone
    readers = {r.function for case in clone.defn
               for r in references(case.expression)}
    assert readers == {clone, I}


def test_inlining_nothing_keeps_every_stage():
    """bilateral has nothing to inline: the pass hands back the original
    outputs and stage objects, so the plan can reuse its lowering."""
    app = ALL_APPS["bilateral"]()
    result = inline_pipeline(app.outputs, app.default_estimates)
    assert result.inlined == ()
    assert all(new is old for new, old in zip(result.outputs, app.outputs))
    assert result.replacements
    assert all(new is old for old, new in result.replacements.items())
    assert not result.changed


def test_only_stages_downstream_of_an_inline_are_cloned():
    app = build_pipeline()
    R, C = app.params["R"], app.params["C"]
    result = inline_pipeline(app.outputs, {R: 256, C: 256})
    by_name = {s.name: s for s in result.replacements}
    replaced = {name: result.replacements[s] is not s
                for name, s in by_name.items()}
    # Sxx reads the inlined Ixx; harris reads Sxx's clone (two hops on)
    assert replaced == {"Ix": False, "Iy": False, "Sxx": True,
                        "Sxy": True, "Syy": True, "harris": True}
    assert result.changed
