"""Work counts of one compile — counts, not wall time.

Algorithm 1 is cheap because the facts it needs are derived once per
:class:`PipelineIR`: the topological order per graph, each edge's taps
per edge, each (group, child) candidate per pair.  A change that brings
per-candidate re-derivation back multiplies these counts by the number
of candidates or rounds and fails here, without a timer.
"""

import collections

import networkx
import pytest

from repro import CompileOptions
from repro.apps import ALL_APPS
from repro.bench.harness import DEFAULT_TILES
from repro.compiler import grouping
from repro.compiler.plan import compile_plan
from repro.pipeline.ir import StageIR

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
            lambda ir, stages, root: ("align", len(stages) > 1))
    counted(StageIR, "accesses_to",
            lambda self, producer: ("taps", producer.name, self.name))
    return seen


def test_local_laplacian_compile_derives_each_fact_once(counts):
    name = "local_laplacian"
    app = ALL_APPS[name]()
    plan = compile_plan(app.outputs, app.default_estimates,
                        CompileOptions.optimized(DEFAULT_TILES[name]))
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
