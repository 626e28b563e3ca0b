"""Tests for pipeline graph extraction, using the Harris app (Figure 2)."""

import pytest

from repro.apps.harris import build_pipeline
from repro.lang import (
    Accumulate, Accumulator, Case, Float, Function, Image, Int, Interval,
    Parameter, Sum, UChar, Variable,
)
from repro.pipeline.graph import CycleError, PipelineGraph, stage_references


@pytest.fixture(scope="module")
def harris_graph():
    app = build_pipeline()
    return PipelineGraph(app.outputs)


def test_harris_has_eleven_stages(harris_graph):
    # Table 2 lists Harris corner detection with 11 stages.
    assert len(harris_graph) == 11


def test_harris_single_input(harris_graph):
    assert len(harris_graph.inputs) == 1
    assert harris_graph.inputs[0].name == "I"


def test_harris_levels_match_figure2(harris_graph):
    by_name = {s.name: s for s in harris_graph.stages}
    level = harris_graph.level
    assert level(by_name["Ix"]) == 0 and level(by_name["Iy"]) == 0
    assert level(by_name["Ixx"]) == 1 and level(by_name["Ixy"]) == 1
    assert level(by_name["Sxx"]) == 2
    assert level(by_name["det"]) == 3 and level(by_name["trace"]) == 3
    assert level(by_name["harris"]) == 4


def test_harris_producers_consumers(harris_graph):
    by_name = {s.name: s for s in harris_graph.stages}
    prods = {p.name for p in harris_graph.producers(by_name["Ixy"])}
    assert prods == {"Ix", "Iy"}
    cons = {c.name for c in harris_graph.consumers(by_name["Sxx"])}
    assert cons == {"det", "trace"}


def test_topological_order_respects_dependences(harris_graph):
    order = harris_graph.topological_order()
    pos = {s: i for i, s in enumerate(order)}
    for producer, consumer in harris_graph.edges():
        assert pos[producer] < pos[consumer]


def test_outputs_flagged(harris_graph):
    by_name = {s.name: s for s in harris_graph.stages}
    assert harris_graph.is_output(by_name["harris"])
    assert not harris_graph.is_output(by_name["Ix"])


def test_dot_output_mentions_stages(harris_graph):
    dot = harris_graph.dot()
    assert '"Ix" -> "Ixx"' in dot
    assert '"I" [shape=box]' in dot


def test_stage_references_counts():
    app = build_pipeline()
    by_name = {s.name: s for s in PipelineGraph(app.outputs).stages}
    # Sxx reads 9 taps of Ixx
    assert len(stage_references(by_name["Sxx"])) == 9


def test_cycle_detection():
    x = Variable("x")
    ivl = Interval(0, 31, 1)
    a = Function(varDom=([x], [ivl]), typ=Float, name="a")
    b = Function(varDom=([x], [ivl]), typ=Float, name="b")
    a.defn = b(x)
    b.defn = a(x)
    with pytest.raises(CycleError):
        PipelineGraph([a])


def test_self_reference_is_not_a_cycle():
    t, x = Variable("t"), Variable("x")
    f = Function(varDom=([t, x], [Interval(0, 7, 1), Interval(0, 31, 1)]),
                 typ=Float, name="f")
    f.defn = [Case(t >= 1, f(t - 1, x)), Case(t < 1, 0.0)]
    g = PipelineGraph([f])
    assert f in g.self_referential
    assert len(g) == 1


def test_accumulator_in_graph():
    R = Parameter(Int, "R")
    I = Image(UChar, [R, R], name="I")
    x, y, b = Variable("x"), Variable("y"), Variable("b")
    ivl = Interval(0, R - 1, 1)
    hist = Accumulator(redDom=([x, y], [ivl, ivl]),
                       varDom=([b], [Interval(0, 255, 1)]),
                       typ=Int, name="hist")
    hist.defn = Accumulate(hist(I(x, y)), 1, Sum)
    g = PipelineGraph([hist])
    assert len(g) == 1
    assert g.inputs == [I]


def test_empty_outputs_rejected():
    with pytest.raises(ValueError):
        PipelineGraph([])


def test_non_stage_output_rejected():
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    with pytest.raises(TypeError):
        PipelineGraph([I])  # images are inputs, not stages


def test_order_is_cached_and_ordered_follows_it(harris_graph):
    order = harris_graph.topological_order()
    order.reverse()  # callers get their own list
    assert harris_graph.topological_order() == order[::-1]
    picked = order[::2]
    assert harris_graph.ordered(picked + picked) == [
        s for s in harris_graph.topological_order() if s in picked]
