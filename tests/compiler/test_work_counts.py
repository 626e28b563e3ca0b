"""Work counts of one compile — counts, not wall time.

A compile is cheap because each fact is derived once: each index
expression is classified once across inlining and planning (the plan's
:class:`PipelineIR` reuses the inlining pass's lowering), and Algorithm 1
derives the topological order per graph, each edge's taps per edge, each
(group, child) candidate per pair, and per merge solves only the edges
into the absorbed stages.  A change that brings per-candidate or
per-lowering re-derivation back multiplies these counts and fails here,
without a timer.
"""

import collections

import networkx
import pytest

from repro import CompileOptions
from repro.apps import ALL_APPS
from repro.bench.harness import DEFAULT_TILES
from repro.compiler import grouping
from repro.compiler.plan import compile_plan
from repro.pipeline import ir as ir_module
from repro.pipeline.graph import PipelineGraph
from repro.pipeline.ir import PipelineIR, StageIR

#: merge candidates Algorithm 1 evaluates for local_laplacian at paper
#: size with the default tiles (its decision log, rejections included)
LAPLACIAN_CANDIDATES = 108


@pytest.fixture
def counts(monkeypatch):
    seen = collections.Counter()

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            seen[key(*args, **kwargs)] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(networkx, "topological_sort", lambda graph: "topological_sort")
    counted(grouping, "compute_group_transforms",
            lambda ir, stages, root, known=None: ("align", len(stages) > 1))
    counted(StageIR, "accesses_to",
            lambda self, producer: ("taps", producer.name, self.name))
    return seen


def _compile(name):
    app = ALL_APPS[name]()
    return compile_plan(app.outputs, app.default_estimates,
                        CompileOptions.optimized(DEFAULT_TILES[name]))


def test_local_laplacian_compile_derives_each_fact_once(counts):
    plan = _compile("local_laplacian")
    n_stages = len(plan.ir.stages)
    n_edges = len(list(plan.ir.graph.edges()))

    # one sort per graph built (inlining's, the plan's) plus the condensed
    # group graph — not one per candidate
    assert counts["topological_sort"] <= 4

    # every (group, child) pair is evaluated once: as many alignment
    # solves as logged decisions, plus one per singleton start group
    assert len(plan.grouping.decisions) == LAPLACIAN_CANDIDATES
    assert counts[("align", True)] == LAPLACIAN_CANDIDATES
    assert counts[("align", False)] <= n_stages

    # the taps of an edge are walked at most once, for the edge's summary
    tap_walks = {k: n for k, n in counts.items() if k[0] == "taps"}
    assert tap_walks and len(tap_walks) <= n_edges
    assert set(tap_walks.values()) == {1}


def test_each_index_expression_is_analysed_once(monkeypatch):
    """local_laplacian inlines 12 stages and clones most of the rest;
    the plan's lowering still classifies no index object twice."""
    seen = collections.Counter()
    held = []  # keeps every counted object alive, so no id is reused
    original = ir_module.analyze_access

    def counted(index):
        held.append(index)
        seen[id(index)] += 1
        return original(index)
    monkeypatch.setattr(ir_module, "analyze_access", counted)
    plan = _compile("local_laplacian")
    assert plan.inlined_names
    assert seen and set(seen.values()) == {1}


def test_one_graph_when_inlining_changes_nothing(monkeypatch):
    graphs = []
    original = PipelineGraph.__init__

    def counted(self, outputs):
        graphs.append(self)
        original(self, outputs)
    monkeypatch.setattr(PipelineGraph, "__init__", counted)
    plan = _compile("interpolate")
    assert plan.inlined_names == ()
    assert len(graphs) == 1 and plan.ir.graph is graphs[0]


def test_merges_solve_only_edges_into_absorbed_stages(monkeypatch):
    """Each merge keeps the child's transforms (``known=``) and looks up
    only the edge summaries whose producer the merge absorbs."""
    solves = []  # (stages, known transforms, producers looked up)
    active = []
    original_solve = grouping.compute_group_transforms
    original_summary = PipelineIR.edge_summary

    def solve(ir, stages, root, known=None):
        solves.append((list(stages), known, []))
        active.append(True)
        try:
            return original_solve(ir, stages, root, known=known)
        finally:
            active.pop()

    def summary(self, producer, consumer):
        if active:
            solves[-1][2].append(producer)
        return original_summary(self, producer, consumer)
    monkeypatch.setattr(grouping, "compute_group_transforms", solve)
    monkeypatch.setattr(PipelineIR, "edge_summary", summary)
    _compile("local_laplacian")

    merges = [(stages, known, looked_up)
              for stages, known, looked_up in solves if len(stages) > 1]
    assert len(merges) == LAPLACIAN_CANDIDATES
    for stages, known, looked_up in merges:
        assert known is not None
        absorbed = set(stages) - set(known.transforms)
        assert absorbed and set(looked_up) <= absorbed
    assert sum(len(looked_up) for _, _, looked_up in merges) > 0
