"""Persistent cross-run schedule store.

Every process used to re-discover schedules from scratch: autotune
sweeps, ``explain()`` shows the decisions, and then the process exits
and the knowledge dies with it.  :class:`ScheduleStore` persists winning
schedules **next to the ``.so`` artifacts** of the content-addressed
:class:`~repro.codegen.build.CompileCache`, keyed on

* the **pipeline content digest** — a SHA-256 over a canonical dump of
  the stage DAG (definitions with positionally-renamed variables, so
  auto-generated variable names never perturb the key; stage, parameter
  and image names are part of identity) plus the compile-time
  estimates, and
* the **machine fingerprint** — cpu count, architecture, C compiler
  version and baseline build flags; a schedule tuned on one machine is
  never silently loaded on another.

Entries are JSON documents published atomically (write to a
dot-prefixed temporary, then ``os.replace`` — the same discipline as
the artifact cache, so N racing processes always observe a complete
winner, never a torn file).  Each entry records the winning
:class:`~repro.compiler.options.CompileOptions`, the optional
:class:`~repro.autotune.TuneResult` with its measurements, the
:class:`~repro.schedule.ScheduleHints` in force, and the compile-cache
key of the published artifact — enough for a cold process to rebuild
the exact plan and ``dlopen`` the existing binary without invoking the
C compiler or re-running the sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
import uuid
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

from repro.lang.constructs import Variable
from repro.lang.function import Accumulator

#: bumped whenever a stored artifact's *calling contract* changes, since
#: ``build_native(store=...)`` dlopens the referenced ``.so`` without
#: regenerating its C.  2: artifacts are re-entrant (arena sets checked
#: out per call) and are called without a lock; a version-1 artifact
#: still indexes one global slot table and would race.  3: the artifact
#: records its full compiler flag set, so a debug or sanitizer build is
#: never loaded for a plain one (or the reverse); a version-2 entry
#: cannot tell which flags built it.
STORE_VERSION = 3
#: subdirectory of the artifact cache root holding schedule entries
STORE_SUBDIR = "schedules"


# ---------------------------------------------------------------------------
# Pipeline content digest
# ---------------------------------------------------------------------------

def _canonical_stage(stage) -> str:
    """Dump one stage with positionally-renamed variables.

    DSL variable names are auto-generated (``Variable()`` mints
    ``x_17``-style names), so two structurally identical pipelines built
    in different processes would repr differently.  Renaming domain
    variables to ``v0, v1, ...`` (reduction variables to ``r0, ...``)
    by position makes the dump depend only on structure and on the
    *chosen* names (stages, parameters, images), which are identity.
    """
    mapping = {v: Variable(f"v{i}") for i, v in enumerate(stage.variables)}
    if isinstance(stage, Accumulator):
        mapping.update({v: Variable(f"r{i}")
                        for i, v in enumerate(stage.red_variables)})
    dom = ", ".join(
        f"v{i}:{iv!r}" for i, iv in enumerate(stage.intervals))
    lines = [f"stage {stage.name} <{stage.dtype!r}> [{dom}]"]
    if isinstance(stage, Accumulator):
        red = ", ".join(
            f"r{i}:{iv!r}" for i, iv in enumerate(stage.red_intervals))
        body = stage.defn
        target = body.target.substitute(mapping)
        value = body.value.substitute(mapping)
        lines.append(f"  red [{red}]")
        lines.append(f"  accumulate {target!r} <- {value!r} op={body.op}")
    else:
        for case in stage.defn:
            cond = case.condition.substitute(mapping)
            expr = case.expression.substitute(mapping)
            lines.append(f"  case {cond!r}: {expr!r}")
    return "\n".join(lines)


def canonical_pipeline_dump(outputs: Sequence, estimates: Mapping) -> str:
    """The canonical text the pipeline digest hashes (exposed for
    tests and debugging)."""
    from repro.pipeline.graph import PipelineGraph

    graph = PipelineGraph(outputs)
    stages = sorted(graph.stages, key=lambda s: s.name)
    parts = ["pipeline v1"]
    parts.append("outputs " + ", ".join(
        sorted(s.name for s in graph.outputs)))
    parts.append("inputs " + ", ".join(
        repr(img) for img in sorted(graph.inputs, key=lambda i: i.name)))
    parts.append("estimates " + ", ".join(
        f"{name}={value}" for name, value in sorted(
            (p.name, int(v)) for p, v in estimates.items())))
    parts.extend(_canonical_stage(s) for s in stages)
    return "\n".join(parts)


def pipeline_digest(outputs: Sequence, estimates: Mapping) -> str:
    """Content digest of a pipeline + estimates (32 hex chars)."""
    dump = canonical_pipeline_dump(outputs, estimates)
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Machine fingerprint
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _compiler_version() -> str:
    from repro.codegen.build import find_compiler

    cc = find_compiler()
    if cc is None:
        return "none"
    try:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=10, check=False).stdout
        first = out.splitlines()[0].strip() if out else cc
    except (OSError, subprocess.SubprocessError):
        first = cc
    return first


def machine_fingerprint() -> dict:
    """The machine identity a stored schedule is valid for."""
    import platform

    from repro.codegen.build import build_flags

    return {
        "cpus": os.cpu_count() or 1,
        "machine": platform.machine(),
        "system": platform.system(),
        "compiler": _compiler_version(),
        "flags": list(build_flags()),
    }


def fingerprint_digest(fingerprint: Mapping) -> str:
    blob = json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Store entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoredSchedule:
    """One persisted schedule: the winning configuration for a
    (pipeline digest, machine fingerprint) pair."""

    pipeline: str
    fingerprint: dict
    options: dict
    hints: dict | None = None
    tune_result: dict | None = None
    #: compile-cache artifact coordinates: ``{"key", "flags",
    #: "instrument"}`` — enough to re-open the published ``.so``
    artifact: dict | None = None
    created: float = 0.0
    version: int = STORE_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "pipeline": self.pipeline,
            "fingerprint": dict(self.fingerprint),
            "options": dict(self.options),
            "hints": dict(self.hints) if self.hints else None,
            "tune_result": (dict(self.tune_result)
                            if self.tune_result else None),
            "artifact": dict(self.artifact) if self.artifact else None,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "StoredSchedule":
        return cls(pipeline=doc["pipeline"],
                   fingerprint=dict(doc["fingerprint"]),
                   options=dict(doc["options"]),
                   hints=doc.get("hints"),
                   tune_result=doc.get("tune_result"),
                   artifact=doc.get("artifact"),
                   created=float(doc.get("created", 0.0)),
                   version=int(doc.get("version", STORE_VERSION)))

    def compile_options(self):
        from repro.compiler.options import CompileOptions
        return CompileOptions.from_dict(self.options)

    def schedule_hints(self):
        if not self.hints:
            return None
        from repro.schedule.hints import ScheduleHints
        return ScheduleHints.from_dict(self.hints)


class ScheduleStore:
    """Atomic, fingerprint-checked persistence of tuned schedules.

    ``root`` defaults to ``<artifact cache root>/schedules`` so entries
    live next to the ``.so`` files they reference and share the cache's
    lifecycle (one ``REPRO_CACHE_DIR`` override moves both).
    """

    def __init__(self, root: str | os.PathLike | None = None):
        if root is None:
            from repro.codegen.build import default_cache_dir
            root = default_cache_dir() / STORE_SUBDIR
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- keys --------------------------------------------------------------
    def path_for(self, pipeline: str, fingerprint: Mapping) -> Path:
        return self.root / f"{pipeline}-{fingerprint_digest(fingerprint)}.json"

    # -- read side ---------------------------------------------------------
    def lookup(self, pipeline: str, fingerprint: Mapping | None = None
               ) -> StoredSchedule | None:
        """The stored schedule for this pipeline on this machine, or
        ``None``.  The embedded fingerprint is compared in full — an
        entry whose *file name* collides but whose fingerprint differs
        (different cpu count, compiler, flags) is skipped, not loaded.
        """
        if fingerprint is None:
            fingerprint = machine_fingerprint()
        path = self.path_for(pipeline, fingerprint)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        try:
            entry = StoredSchedule.from_dict(doc)
        except (KeyError, TypeError, ValueError):
            return None
        if entry.version != STORE_VERSION:
            return None
        if entry.pipeline != pipeline:
            return None
        if entry.fingerprint != dict(fingerprint):
            return None
        return entry

    # -- write side --------------------------------------------------------
    def publish(self, entry: StoredSchedule) -> Path:
        """Atomically publish ``entry`` (last writer wins, readers never
        observe a torn file — same ``os.replace`` discipline as the
        artifact cache)."""
        path = self.path_for(entry.pipeline, entry.fingerprint)
        doc = entry.to_dict()
        if not doc.get("created"):
            doc["created"] = time.time()
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    # -- maintenance -------------------------------------------------------
    def entries(self) -> list[StoredSchedule]:
        out = []
        for path in sorted(self.root.glob("*.json")):
            try:
                out.append(StoredSchedule.from_dict(
                    json.loads(path.read_text())))
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return out

    def clear(self) -> int:
        n = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
                n += 1
            except OSError:
                pass
        return n

    def manifest(self) -> dict:
        """A JSON-ready summary of every entry (for the CLI and CI
        artifacts)."""
        entries = []
        for e in self.entries():
            best = (e.tune_result or {}).get("time_parallel_ms")
            entries.append({
                "pipeline": e.pipeline,
                "fingerprint": fingerprint_digest(e.fingerprint),
                "cpus": e.fingerprint.get("cpus"),
                "artifact_key": (e.artifact or {}).get("key"),
                "tuned_ms": best,
                "hinted": bool(e.hints),
                "created": e.created,
            })
        return {"root": str(self.root), "entries": entries}
