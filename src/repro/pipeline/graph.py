"""Pipeline graph extraction (paper Section 3, first phase).

Walks the definitions of the requested live-out functions, collects every
reachable stage (functions and accumulators), and builds the DAG whose
nodes are stages and whose edges are producer → consumer relationships.
Cycles (other than the self-references that express time-iterated
computations) make the specification invalid.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

import networkx as nx

from repro.lang.expr import Expr, Reference, condition_references, references
from repro.lang.function import Accumulator, Function
from repro.lang.image import Image

Stage = Union[Function, Accumulator]


class CycleError(ValueError):
    """The pipeline specification contains a dependence cycle."""


def stage_references(stage: Stage) -> list[Reference]:
    """All references appearing in a stage's definition (conditions too)."""
    refs: list[Reference] = []
    if isinstance(stage, Accumulator):
        body = stage.defn
        for arg in body.target.args:
            refs.extend(references(arg))
        refs.extend(references(body.value))
        return refs
    for case in stage.defn:
        refs.extend(condition_references(case.condition))
        refs.extend(references(case.expression))
    return refs


class PipelineGraph:
    """The stage DAG of a pipeline.

    ``outputs`` are the live-out stages; ``inputs`` the :class:`Image`
    objects reached.  Self-referential stages (time-iterated patterns,
    summed-area tables) are recorded in :attr:`self_referential`; the self
    edge is *not* part of the DAG.
    """

    def __init__(self, outputs: Iterable[Stage]):
        self.outputs: tuple[Stage, ...] = tuple(outputs)
        if not self.outputs:
            raise ValueError("a pipeline needs at least one output")
        for out in self.outputs:
            if not isinstance(out, (Function, Accumulator)):
                raise TypeError(f"pipeline outputs must be stages, got {out!r}")

        self._dag = nx.DiGraph()
        self.inputs: list[Image] = []
        self.self_referential: set[Stage] = set()
        # each stage's stage_references(), walked once by discovery
        self._references: dict[Stage, list[Reference]] = {}
        self._discover()
        # The DAG never changes after discovery, so the level map, the
        # topological order and each stage's position in it are facts of
        # the graph, computed here once.
        nx_order = list(nx.topological_sort(self._dag))
        self._levels = self._compute_levels(nx_order)
        # (a stable sort: stages of one level keep networkx's order)
        self._order: tuple[Stage, ...] = tuple(
            sorted(nx_order, key=self._levels.__getitem__))
        self._position = {stage: i for i, stage in enumerate(self._order)}

    # -- construction -----------------------------------------------------
    def _discover(self) -> None:
        seen_inputs: set[int] = set()
        stack: list[Stage] = list(self.outputs)
        discovered: set[Stage] = set()
        while stack:
            stage = stack.pop()
            if stage in discovered:
                continue
            discovered.add(stage)
            self._dag.add_node(stage)
            refs = self._references[stage] = stage_references(stage)
            for ref in refs:
                producer = ref.function
                if isinstance(producer, Image):
                    if id(producer) not in seen_inputs:
                        seen_inputs.add(id(producer))
                        self.inputs.append(producer)
                    continue
                if producer is stage:
                    self.self_referential.add(stage)
                    continue
                if not isinstance(producer, (Function, Accumulator)):
                    raise TypeError(
                        f"stage {stage.name!r} references {producer!r}, "
                        "which is neither a stage nor an image")
                self._dag.add_edge(producer, stage)
                if producer not in discovered:
                    stack.append(producer)
        if not nx.is_directed_acyclic_graph(self._dag):
            cycle = nx.find_cycle(self._dag)
            names = " -> ".join(edge[0].name for edge in cycle)
            raise CycleError(f"pipeline graph has a cycle: {names}")
        names = [s.name for s in self._dag.nodes]
        names += [img.name for img in self.inputs]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(
                "stage/image names must be unique within a pipeline; "
                f"duplicated: {sorted(duplicates)}")

    def _compute_levels(self, nx_order: list[Stage]) -> dict[Stage, int]:
        """Level = longest producer chain; sources (image-only) are 0."""
        levels: dict[Stage, int] = {}
        for stage in nx_order:
            producers = list(self._dag.predecessors(stage))
            if producers:
                levels[stage] = 1 + max(levels[p] for p in producers)
            else:
                levels[stage] = 0
        return levels

    # -- queries ----------------------------------------------------------
    @property
    def stages(self) -> tuple[Stage, ...]:
        return tuple(self._dag.nodes)

    def __contains__(self, stage: Stage) -> bool:
        return stage in self._dag

    def __len__(self) -> int:
        return self._dag.number_of_nodes()

    def producers(self, stage: Stage) -> list[Stage]:
        return list(self._dag.predecessors(stage))

    def consumers(self, stage: Stage) -> list[Stage]:
        return list(self._dag.successors(stage))

    def level(self, stage: Stage) -> int:
        return self._levels[stage]

    def references(self, stage: Stage) -> list[Reference]:
        """:func:`stage_references` of a stage of this graph."""
        return self._references[stage]

    def topological_order(self) -> list[Stage]:
        """Stages in a producer-before-consumer order, stable by level."""
        return list(self._order)

    def ordered(self, stages: Iterable[Stage]) -> list[Stage]:
        """The distinct ``stages`` in :meth:`topological_order` order."""
        return sorted(set(stages), key=self._position.__getitem__)

    def is_output(self, stage: Stage) -> bool:
        return stage in self.outputs

    def edges(self) -> Iterator[tuple[Stage, Stage]]:
        return iter(self._dag.edges)

    def dot(self) -> str:
        """Graphviz description of the pipeline graph (Figure 2 style)."""
        lines = ["digraph pipeline {"]
        for img in self.inputs:
            lines.append(f'  "{img.name}" [shape=box];')
        for stage in self.stages:
            shape = "ellipse" if isinstance(stage, Function) else "diamond"
            lines.append(f'  "{stage.name}" [shape={shape}];')
        emitted = set()
        for stage in self.stages:
            for ref in stage_references(stage):
                src = ref.function
                key = (id(src), id(stage))
                if key in emitted or src is stage:
                    continue
                emitted.add(key)
                lines.append(f'  "{src.name}" -> "{stage.name}";')
        lines.append("}")
        return "\n".join(lines)
