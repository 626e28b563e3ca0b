"""Tests for IR lowering: domains, cases, access classification."""

import pickle

import pytest

from repro.apps import ALL_APPS
from repro.apps.harris import build_pipeline
from repro.lang import (
    Accumulate, Accumulator, Case, Cast, Float, Function, Image, Int,
    Interval, Parameter, Sum, UChar, Variable,
)
from repro.lang.expr import Reference
from repro.pipeline.graph import PipelineGraph
from repro.pipeline.inline import inline_pipeline
from repro.pipeline.ir import PipelineIR
from repro.poly.interval import IntInterval


@pytest.fixture(scope="module")
def harris_ir():
    app = build_pipeline()
    ir = PipelineIR(PipelineGraph(app.outputs))
    return app, ir


def _stage(ir, name):
    for s in ir.stages.values():
        if s.name == name:
            return s
    raise KeyError(name)


def test_domains_concretize(harris_ir):
    app, ir = harris_ir
    R, C = app.params["R"], app.params["C"]
    ix = _stage(ir, "Ix")
    assert ix.domain.concretize({R: 10, C: 12}) == (
        IntInterval(0, 11), IntInterval(0, 13))


def test_case_boxes_tightened(harris_ir):
    app, ir = harris_ir
    R, C = app.params["R"], app.params["C"]
    sxx = _stage(ir, "Sxx")
    assert len(sxx.cases) == 1
    box = sxx.cases[0].box.concretize({R: 10, C: 10})
    assert box == (IntInterval(2, 9), IntInterval(2, 9))


def test_access_classification(harris_ir):
    app, ir = harris_ir
    sxx = _stage(ir, "Sxx")
    assert len(sxx.accesses) == 9
    assert all(a.is_affine for a in sxx.accesses)


def test_pointwise_detection(harris_ir):
    _, ir = harris_ir
    assert _stage(ir, "Ixx").is_pointwise
    assert _stage(ir, "det").is_pointwise
    assert _stage(ir, "harris").is_pointwise
    assert not _stage(ir, "Ix").is_pointwise  # stencil
    assert not _stage(ir, "Sxx").is_pointwise


def test_levels_and_output_flags(harris_ir):
    _, ir = harris_ir
    assert _stage(ir, "harris").is_output
    assert _stage(ir, "harris").level == 4
    assert not _stage(ir, "Iy").is_output


def test_size_estimate(harris_ir):
    app, ir = harris_ir
    R, C = app.params["R"], app.params["C"]
    harris = _stage(ir, "harris")
    assert harris.size_estimate({R: 62, C: 62}) == 64 * 64


def test_accumulator_lowering():
    R = Parameter(Int, "R")
    I = Image(UChar, [R, R], name="I")
    x, y, b = Variable("x"), Variable("y"), Variable("b")
    ivl = Interval(0, R - 1, 1)
    hist = Accumulator(redDom=([x, y], [ivl, ivl]),
                       varDom=([b], [Interval(0, 255, 1)]),
                       typ=Int, name="hist")
    hist.defn = Accumulate(hist(Cast(Int, I(x, y))), 1, Sum)
    ir = PipelineIR(PipelineGraph([hist]))
    sir = ir[hist]
    assert sir.is_accumulator
    assert sir.reduction_domain.concretize({R: 8}) == (
        IntInterval(0, 7), IntInterval(0, 7))
    assert sir.domain.concretize({R: 8}) == (IntInterval(0, 255),)
    # the histogram's target index I(x, y) is data-dependent
    assert not sir.is_pointwise
    assert any(not a.is_affine or a.producer is I for a in sir.accesses)


def test_data_dependent_access_forms():
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    lut = Image(Float, [R], name="lut")
    x = Variable("x")
    f = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float, name="f")
    f.defn = lut(Cast(Int, I(x) * 10))
    ir = PipelineIR(PipelineGraph([f]))
    sir = ir[f]
    lut_access = [a for a in sir.accesses if a.producer is lut][0]
    assert lut_access.forms == (None,)
    assert not lut_access.is_affine


def test_sampled_access_forms():
    R = Parameter(Int, "R")
    x = Variable("x")
    g = Function(varDom=([x], [Interval(0, R, 1)]), typ=Float, name="g")
    g.defn = x * 1.0
    up = Function(varDom=([x], [Interval(0, 2 * R, 1)]), typ=Float, name="up")
    up.defn = g(x // 2)
    ir = PipelineIR(PipelineGraph([up]))
    form = ir[up].accesses[0].forms[0]
    assert form is not None and form.divisor == 2


def test_access_forms_by_reference_identity():
    """References the IR holds get the forms lowering classified (the
    same tuple, no re-analysis); a foreign node is analysed afresh."""
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    lut = Image(Float, [R], name="lut")
    x = Variable("x")
    f = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float, name="f")
    f.defn = lut(Cast(Int, I(x // 2) * 10))
    ir = PipelineIR(PipelineGraph([f]))
    for access in ir[f].accesses:
        assert ir.access_forms(access.reference) is access.forms
    (form,) = ir.access_forms(I(2 * x + 1))
    assert form is not None and form.divisor == 1 and form.aff.const == 1
    assert ir.access_forms(lut(Cast(Int, I(x)))) == (None,)


def test_access_forms_never_answer_for_another_object():
    """The by-identity memos key on ``id()``; an IR that crossed a
    pickle carries the ids of the process that built it, so a key that
    now names a different node must not answer for it."""
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    lut = Image(Float, [R], name="lut")
    x = Variable("x")
    f = Function(varDom=([x], [Interval(0, R - 1, 1)]), typ=Float, name="f")
    f.defn = lut(Cast(Int, I(x // 2) * 10))
    ir = PipelineIR(PipelineGraph([f]))
    lut_access, i_access = sorted(ir[f].accesses,
                                  key=lambda a: a.producer.name != "lut")
    assert ir.access_forms(lut_access.reference) == (None,)
    # stale entries whose ids collide with the I access and its index
    ir._forms_by_reference[id(i_access.reference)] = lut_access
    ir._index_forms[id(i_access.reference.args[0])] = (
        lut_access.reference.args[0], None)
    assert ir.access_forms(i_access.reference) == i_access.forms
    assert ir.access_forms(Reference(I, i_access.reference.args)) == \
        i_access.forms

    clone = pickle.loads(pickle.dumps(ir))
    for access in clone[clone.graph.outputs[0]].accesses:
        assert clone.access_forms(access.reference) == access.forms


def test_edge_summary_dedups_requirements_and_hulls_taps():
    R = Parameter(Int, "R")
    x = Variable("x")
    g = Function(varDom=([x], [Interval(0, R, 1)]), typ=Float, name="g")
    g.defn = x * 1.0
    f = Function(varDom=([x], [Interval(0, R, 1)]), typ=Float, name="f")
    f.defn = g(x - 2) + g(x) + g(x + 1) + g((x + 1) // 2)
    ir = PipelineIR(PipelineGraph([f]))
    summary = ir.edge_summary(g, f)
    assert summary is ir.edge_summary(g, f)
    # three stencil taps share one requirement; the sampled tap adds one
    assert sorted(summary.requirements) == [((x, 1),), ((x, 2),)]
    # offsets -(-2)..-(1), and the floor's slack on the sampled tap
    assert summary.hulls == ((-1, 2),)
    assert summary.const_taps == ()


def _lowering(stage_ir):
    """Everything a lowering derives, in comparable form."""
    def box(b):
        return None if b is None else (b.variables, b.bounds)
    return (box(stage_ir.domain), box(stage_ir.reduction_domain),
            [(c.condition, c.expression, c.split, box(c.box))
             for c in stage_ir.cases],
            [(a.reference, a.producer, a.forms) for a in stage_ir.accesses],
            stage_ir.level, stage_ir.is_output, stage_ir.is_self_referential)


@pytest.mark.parametrize("name", ["camera", "harris", "local_laplacian",
                                  "pyramid_blend"])
def test_reused_lowering_equals_a_fresh_one(name):
    """The plan's IR reuses the inlining pass's lowering; what it derives
    must be exactly what lowering the rewritten pipeline afresh gives."""
    app = ALL_APPS[name]()
    result = inline_pipeline(app.outputs, app.default_estimates)
    assert result.changed
    graph = PipelineGraph(result.outputs)
    reused = PipelineIR(graph, reuse=result.ir)
    fresh = PipelineIR(graph)
    for stage in graph.stages:
        assert _lowering(reused[stage]) == _lowering(fresh[stage]), stage.name
    kept = [s for s in graph.stages if s in result.ir.stages]
    assert kept
    for stage in kept:
        assert reused[stage].accesses is result.ir[stage].accesses
