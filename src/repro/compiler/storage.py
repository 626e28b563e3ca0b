"""Storage mapping (paper Section 3.6).

Live-out functions — pipeline outputs and any stage consumed outside its
group — are stored in full buffers sized by their domains.  Intermediate
functions of a tiled group live only within a tile, so they are mapped to
small per-tile *scratchpads* indexed relative to the tile origin; all
tiles executed sequentially by one thread reuse the same scratchpads (the
runtime keeps a per-thread pool keyed by shape).  This storage reduction
is what makes overlapped tiling effective for streaming image pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.compiler.grouping import Group, GroupingResult
from repro.compiler.tiling import group_liveouts
from repro.pipeline.graph import Stage
from repro.pipeline.ir import PipelineIR

FULL = "full"
SCRATCH = "scratch"


@dataclass(frozen=True)
class StorageDecision:
    """Where a stage's values live, and why."""

    kind: str
    reason: str


def classify_storage(ir: PipelineIR,
                     grouping: GroupingResult) -> dict[Stage, StorageDecision]:
    """Assign FULL or SCRATCH storage to every stage."""
    decisions: dict[Stage, StorageDecision] = {}
    for group in grouping.groups:
        liveouts = set(group_liveouts(ir, group.stages))
        for stage in group.stages:
            stage_ir = ir[stage]
            if stage_ir.is_output:
                decisions[stage] = StorageDecision(FULL, "pipeline output")
            elif stage in liveouts:
                decisions[stage] = StorageDecision(
                    FULL, "consumed outside its group")
            elif not group.is_tiled:
                decisions[stage] = StorageDecision(
                    FULL, "member of an untiled group")
            else:
                decisions[stage] = StorageDecision(
                    SCRATCH, "tile-local intermediate")
    return decisions


def storage_footprint(plan, param_values: Mapping) -> dict[str, int]:
    """Bytes of full-buffer vs scratchpad storage (Section 3.6's saving).

    ``full_bytes`` counts every full buffer (inputs excluded); for
    comparison ``unfused_bytes`` is what the same stages would need as
    full buffers if nothing were mapped to scratchpads.  ``scratch_bytes``
    is the per-thread tile-local allocation of the tiled groups.
    """
    from repro.codegen.cgen import CGenerator  # static scratch sizing

    full_bytes = 0
    unfused_bytes = 0
    scratch_bytes = 0
    gen = CGenerator(plan)
    for group_plan in plan.group_plans:
        for stage in group_plan.ordered_stages:
            stage_ir = plan.ir[stage]
            box = stage_ir.domain.concretize(param_values)
            if box is None:
                continue
            nbytes = stage.dtype.np_dtype.itemsize
            for ivl in box:
                nbytes *= ivl.size
            unfused_bytes += nbytes
            if plan.storage[stage].kind == FULL:
                full_bytes += nbytes
            else:
                sizes = gen._scratch_size(stage, group_plan)
                sbytes = stage.dtype.np_dtype.itemsize
                for s in sizes:
                    sbytes *= s
                scratch_bytes += sbytes
    return {"full_bytes": full_bytes,
            "scratch_bytes": scratch_bytes,
            "unfused_bytes": unfused_bytes}
