"""Tests for Algorithm 1 (grouping) and plan assembly."""

import pytest

from repro.apps import harris as harris_app
from repro.compiler.grouping import group_pipeline
from repro.compiler.options import CompileOptions
from repro.compiler.plan import compile_plan
from repro.compiler.storage import SCRATCH, classify_storage
from repro.lang import (
    Accumulate, Accumulator, Case, Cast, Float, Function, Image, Int,
    Interval, Parameter, Sum, UChar, Variable,
)
from repro.pipeline.graph import PipelineGraph
from repro.pipeline.inline import inline_pipeline
from repro.pipeline.ir import PipelineIR


def _inlined_harris_ir():
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    result = inline_pipeline(app.outputs, est)
    graph = PipelineGraph(result.outputs)
    return app, est, PipelineIR(graph)


def test_harris_groups_into_one():
    app, est, ir = _inlined_harris_ir()
    grouping = group_pipeline(ir, est, (32, 256), 0.4)
    assert len(grouping.groups) == 1
    group = grouping.groups[0]
    assert {s.name for s in group.stages} == {
        "Ix", "Iy", "Sxx", "Sxy", "Syy", "harris"}
    assert group.root.name == "harris"
    assert group.is_tiled


def test_tiny_threshold_prevents_overlapping_merges():
    """With a near-zero threshold only zero-overlap (point-wise) merges
    survive: the S-stages fuse with harris, but the stencil stages Ix/Iy
    stay separate because fusing them would introduce overlap."""
    app, est, ir = _inlined_harris_ir()
    grouping = group_pipeline(ir, est, (8, 8), 0.01)
    assert len(grouping.groups) == 3
    singleton_names = sorted(g.stages[0].name for g in grouping.groups
                             if len(g.stages) == 1)
    assert singleton_names == ["Ix", "Iy"]


def test_groups_partition_stages():
    app, est, ir = _inlined_harris_ir()
    grouping = group_pipeline(ir, est, (32, 256), 0.4)
    seen = []
    for group in grouping.groups:
        seen.extend(group.stages)
    assert len(seen) == len(set(map(id, seen))) == len(ir.stages)


def test_group_execution_order_valid():
    app, est, ir = _inlined_harris_ir()
    grouping = group_pipeline(ir, est, (8, 8), 0.01)
    pos = {id(g): i for i, g in enumerate(grouping.groups)}
    for producer, consumer in ir.graph.edges():
        gp = grouping.group_of(producer)
        gc = grouping.group_of(consumer)
        if gp is not gc:
            assert pos[id(gp)] < pos[id(gc)]


def test_accumulator_never_merged():
    R = Parameter(Int, "R")
    I = Image(UChar, [R, R], name="I")
    x, y, b = Variable("x"), Variable("y"), Variable("b")
    ivl = Interval(0, R - 1, 1)
    hist = Accumulator(redDom=([x, y], [ivl, ivl]),
                       varDom=([b], [Interval(0, 255, 1)]),
                       typ=Int, name="hist")
    hist.defn = Accumulate(hist(Cast(Int, I(x, y))), 1, Sum)
    scaled = Function(varDom=([b], [Interval(0, 255, 1)]), typ=Float,
                      name="scaled")
    scaled.defn = hist(b) / (R * 1.0)
    ir = PipelineIR(PipelineGraph([scaled]))
    grouping = group_pipeline(ir, {R: 64}, (32,), 0.5)
    assert len(grouping.groups) == 2


def test_infeasible_scaling_blocks_merge():
    R = Parameter(Int, "R")
    x = Variable("x")
    g = Function(varDom=([x], [Interval(0, 8 * R, 1)]), typ=Float, name="g")
    g.defn = x * 1.0
    f = Function(varDom=([x], [Interval(0, R, 1)]), typ=Float, name="f")
    f.defn = g(x // 2) + g(x // 4)
    ir = PipelineIR(PipelineGraph([f]))
    grouping = group_pipeline(ir, {R: 256}, (32,), 0.5)
    assert len(grouping.groups) == 2


def test_summary_lists_groups():
    app, est, ir = _inlined_harris_ir()
    grouping = group_pipeline(ir, est, (32, 256), 0.4)
    text = grouping.summary()
    assert "harris" in text and "group 0" in text


# -- compile_plan end-to-end ---------------------------------------------------

def test_compile_plan_harris_matches_figure7_storage():
    """The optimized plan gives scratchpads to exactly the stages the
    paper's generated code (Figure 7) allocates as scratchpads."""
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    plan = compile_plan(app.outputs, est, CompileOptions.optimized())
    scratch = {s.name for s, d in plan.storage.items() if d.kind == SCRATCH}
    assert scratch == {"Ix", "Iy", "Sxx", "Syy", "Sxy"}
    assert len(plan.group_plans) == 1
    assert sorted(plan.inlined_names) == [
        "Ixx", "Ixy", "Iyy", "det", "trace"]


def test_compile_plan_base_variant():
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    plan = compile_plan(app.outputs, est, CompileOptions.base())
    # inlining still happens, but no grouping/tiling
    assert len(plan.group_plans) == 6
    assert all(not gp.is_tiled for gp in plan.group_plans)
    assert all(d.kind == "full" for d in plan.storage.values())


def test_compile_plan_no_inline():
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    from dataclasses import replace
    plan = compile_plan(app.outputs, est,
                        replace(CompileOptions.optimized(), inline=False))
    assert len(plan.ir.stages) == 11
    assert plan.inlined_names == ()


def test_compile_plan_output_map_preserves_identity():
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    plan = compile_plan(app.outputs, est)
    assert set(plan.output_map) == set(app.outputs)
    assert plan.output_map[app.outputs[0]].name == "harris"


def test_tile_space_and_tiles_cover_domain():
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 100, app.params["C"]: 70}
    plan = compile_plan(app.outputs, est, CompileOptions.optimized((32, 32)))
    gp = plan.group_plans[0]
    space = gp.tile_space(plan.ir, est)
    assert space[0].lo == 0 and space[0].hi == 101
    tiles = list(gp.tiles(plan.ir, est))
    # tiles partition group coordinates: count and coverage
    assert len(tiles) == 4 * 3  # ceil(102/32) x ceil(72/32)
    covered_lo = min(t[0].lo for t in tiles)
    covered_hi = max(t[0].hi for t in tiles)
    assert covered_lo <= 0 and covered_hi >= 101


def test_plan_summary_mentions_scratch():
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    plan = compile_plan(app.outputs, est)
    text = plan.summary()
    assert "scratch" in text and "group 0" in text


def test_grouping_dot_clusters():
    """Figure 8 rendering: one dashed cluster per group."""
    app = harris_app.build_pipeline()
    est = {app.params["R"]: 256, app.params["C"]: 256}
    plan = compile_plan(app.outputs, est, CompileOptions.optimized())
    dot = plan.grouping.dot()
    assert dot.count("subgraph cluster_") == len(plan.group_plans)
    assert "style=dashed" in dot
    assert '"Ix" -> "Sxx"' in dot  # post-inlining edge


def _all_output_chain(construction_order):
    """s0 -> s1 -> s2 -> s3, every stage a pipeline output, with the
    Function objects created in ``construction_order`` (which decides
    their addresses, hence how a set of them iterates)."""
    R = Parameter(Int, "R")
    I = Image(Float, [R], name="I")
    x = Variable("x")
    stages = {}
    for i in construction_order:
        stages[i] = Function(varDom=([x], [Interval(0, R - 1, 1)]),
                             typ=Float, name=f"s{i}")
    for i in range(4):
        prev = I if i == 0 else stages[i - 1]
        stages[i].defn = [Case((x >= 4) & (x <= R - 5),
                               prev(x - 1) + prev(x + 1))]
    return R, [stages[i] for i in range(4)]


@pytest.mark.parametrize("construction_order",
                         [(0, 1, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)])
def test_liveouts_follow_topological_order(construction_order):
    """A group with several live-outs lists them in topological order
    however its stage set happens to hash, so the generated C (tile-space
    min/max parts) cannot depend on object addresses."""
    from repro import compile_pipeline

    def compile_chain(order):
        R, chain = _all_output_chain(order)
        return compile_pipeline(chain, {R: 256},
                                CompileOptions.optimized((64,)),
                                name="chain")

    compiled = compile_chain(construction_order)
    (gp,) = compiled.plan.group_plans
    assert [s.name for s in gp.ordered_stages] == ["s0", "s1", "s2", "s3"]
    assert gp.liveouts == gp.ordered_stages
    assert compiled.c_source() == compile_chain((0, 1, 2, 3)).c_source()
