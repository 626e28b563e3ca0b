"""Parallel race detection (``RV3xx``).

The inter-tile loop of every tiled group runs under ``#pragma omp for``;
its legality rests on two facts this module proves independently:

* tiles *partition* each live-out's index space — with ownership defined
  by rational containment (``scale * x`` inside the tile's group range),
  adjacent tiles must neither own the same cell (``RV301``, a write
  race) nor leave an in-domain cell unowned (``RV303``, a cell the
  parallel loop never writes);
* shared mutable state in the generated C (the ``static`` stats
  accumulators of ``instrument`` mode) is only written under
  ``#pragma omp atomic`` inside parallel regions (``RV302``) —
  :func:`lint_generated_c` scans the emitted source directly.
"""

from __future__ import annotations

import re
from typing import Hashable, Mapping

from repro.compiler.plan import PipelinePlan
from repro.verify.diagnostics import Diagnostic, Emitter
from repro.verify.legality import PlanFacts

#: boundaries examined per stage dimension (first few, middle, last)
_MAX_BOUNDARIES = 8


def _sample_boundaries(first_tile: int, last_tile: int) -> list[int]:
    """Interior tile indices whose lower edge forms a boundary."""
    interior = range(first_tile + 1, last_tile + 1)
    n = len(interior)
    if n <= _MAX_BOUNDARIES:
        return list(interior)
    picks = {interior[0], interior[1], interior[n // 2],
             interior[-2], interior[-1]}
    step = max(1, n // _MAX_BOUNDARIES)
    picks.update(interior[::step])
    return sorted(picks)[:_MAX_BOUNDARIES]


def race_diagnostics(plan: PipelinePlan, emit: Emitter,
                     checked: dict[str, int],
                     env: Mapping[Hashable, int] | None = None,
                     facts: PlanFacts | None = None) -> None:
    """Run the tile-ownership checks over every tiled group."""
    env = dict(env if env is not None else plan.estimates)
    if facts is None:
        facts = PlanFacts(plan, env)
    for gi, gp in enumerate(plan.group_plans):
        if not gp.is_tiled:
            continue
        transforms = gp.transforms
        assert transforms is not None
        if any(s not in transforms for s in gp.ordered_stages):
            continue  # RV004 already reported
        space = facts.tile_space(gp)
        for stage in facts.liveouts(gp):
            t = transforms[stage]
            dom = facts.dom(stage)
            if dom is None:
                continue
            for d in range(plan.ir[stage].ndim):
                g = t.dim_map[d]
                scale = t.scales[d]
                if scale <= 0:
                    emit.emit("RV301",
                              f"live-out {stage.name} has non-positive "
                              f"scale {scale} along dim {d}; tile ownership "
                              "is ill-defined",
                              stage=stage.name, group=gi,
                              hint="scales must be positive rationals")
                    continue
                if space is None:
                    continue
                tau = gp.tile_sizes[g]
                first = space[g].lo // tau
                last = space[g].hi // tau
                sn, sd = scale.numerator, scale.denominator
                for tile in _sample_boundaries(first, last):
                    boundary = tile * tau
                    checked["boundaries"] = checked.get("boundaries", 0) + 1
                    prev_hi = ((boundary - 1) * sd) // sn
                    next_lo = -((-boundary * sd) // sn)
                    if prev_hi >= next_lo:
                        cells = [x for x in (next_lo, prev_hi)
                                 if x in dom[d]]
                        if cells:
                            emit.emit(
                                "RV301",
                                f"tiles T={tile - 1} and T={tile} both own "
                                f"{stage.name} cells [{next_lo}, {prev_hi}] "
                                f"along dim {d}",
                                stage=stage.name, group=gi,
                                hint="two OpenMP tile iterations write the "
                                     "same full-buffer cell concurrently")
                    elif next_lo > prev_hi + 1:
                        lost = [x for x in range(prev_hi + 1, next_lo)
                                if x in dom[d]]
                        if lost:
                            emit.emit(
                                "RV303",
                                f"cells {lost[0]}..{lost[-1]} of "
                                f"{stage.name} dim {d} fall between tiles "
                                f"T={tile - 1} and T={tile} and are never "
                                "written",
                                stage=stage.name, group=gi,
                                hint="the scaled coordinate lands strictly "
                                     "between integer tile ranges; such a "
                                     "stage must not be a tiled live-out")


# ---------------------------------------------------------------------------
# Generated-C lint
# ---------------------------------------------------------------------------

_STATIC_DECL = re.compile(r"^\s*static\s+[A-Za-z_][\w ]*?\b(\w+)\s*\[")
#: pointer-valued statics (e.g. the idle arena-set list head): no
#: bracket in the declarator, ``*`` in the type
_STATIC_PTR_DECL = re.compile(
    r"^\s*static\s+[A-Za-z_][\w ]*?\*+\s*(\w+)\s*[=;]")
_PARALLEL = re.compile(r"#pragma\s+omp\s+parallel\b")
_ATOMIC = re.compile(r"#pragma\s+omp\s+atomic\b")
#: bracket indices that select a per-thread slot — such writes are
#: thread-private by construction, not races
_THREAD_INDEX = re.compile(
    r"^\s*(?:\(long\)\s*)?(?:_?tid|omp_get_thread_num\s*\(\s*\))\s*$")


def _write_pattern(names: set[str]) -> re.Pattern | None:
    if not names:
        return None
    alt = "|".join(re.escape(n) for n in sorted(names))
    return re.compile(
        rf"\b({alt})\s*(?:\[([^\]]*)\])?\s*(?:->\s*\w+\s*)?"
        rf"(\+\+|--|[-+*/|&^]?=[^=])"
        rf"|(\+\+|--)\s*({alt})\b")


def lint_c_source(source: str, emit: Emitter,
                  checked: dict[str, int]) -> None:
    """Scan generated C for un-atomic writes to shared statics (RV302).

    Tracks both array statics (the instrument-mode accumulators) and
    pointer statics (the idle arena-set list), indexed or not.  Writes
    whose index is the thread id (``_tid`` / ``omp_get_thread_num()``)
    are per-thread slots, not shared cells, and are allowed.
    """
    shared: set[str] = set()
    for line in source.splitlines():
        m = _STATIC_DECL.match(line) or _STATIC_PTR_DECL.match(line)
        if m:
            shared.add(m.group(1))
    writes = _write_pattern(shared)
    if writes is None:
        return

    depth = 0
    pending_parallel = False
    parallel_depths: list[int] = []
    prev_code = ""
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        checked["c_lines"] = checked.get("c_lines", 0) + 1
        if _PARALLEL.search(stripped):
            pending_parallel = True
            prev_code = stripped
            continue
        opens = line.count("{")
        if pending_parallel and opens:
            parallel_depths.append(depth)
            pending_parallel = False
        in_parallel = bool(parallel_depths)
        match = writes.search(line) if in_parallel \
            and not stripped.startswith("#") else None
        if match is not None and match.group(2) is not None \
                and _THREAD_INDEX.match(match.group(2)):
            match = None  # per-thread slot write
        if match is not None:
            if not _ATOMIC.search(prev_code):
                emit.emit(
                    "RV302",
                    f"line {lineno}: write to shared static "
                    f"{match.group(1) or match.group(5)!r} "
                    "inside a parallel region without '#pragma omp atomic'",
                    hint="every tile iteration may execute this "
                         "concurrently; guard the update or make it "
                         "thread-local")
        depth += opens - line.count("}")
        while parallel_depths and depth <= parallel_depths[-1]:
            parallel_depths.pop()
        if stripped:
            prev_code = stripped


def lint_generated_c(source: str,
                     severity_overrides: Mapping[str, str] | None = None
                     ) -> list[Diagnostic]:
    """Public entry point: lint one generated C translation unit."""
    emit = Emitter(severity_overrides)
    lint_c_source(source, emit, {})
    return emit.diagnostics
