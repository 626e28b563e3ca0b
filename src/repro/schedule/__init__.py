"""Guided scheduling: hints over Algorithm 1 + a persistent schedule store.

Two halves (see :mod:`repro.schedule.hints` and
:mod:`repro.schedule.store`):

* :class:`ScheduleHints` — per-stage directives (``force_group``,
  ``forbid_group``, ``tile_override``, ``inline``, ``n_threads``)
  accepted by ``compile_pipeline(hints=)`` / ``autotune(hints=)``.
  Hints constrain the automatic scheduler without bypassing legality;
  the RV6xx verify family audits them post hoc.
* :class:`ScheduleStore` — winning schedules persisted next to the
  compile-cache artifacts, keyed on pipeline content digest + machine
  fingerprint, so ``build(store="ro")`` / ``autotune(store="rw")`` /
  ``serve(processes=N, build_kwargs={"store": "ro"})`` cold-start
  straight into the best known schedule and its already-compiled
  binary.
"""

from repro.schedule.hints import ScheduleHints
from repro.schedule.store import (
    ScheduleStore, StoredSchedule, canonical_pipeline_dump,
    fingerprint_digest, machine_fingerprint, pipeline_digest,
)

__all__ = [
    "ScheduleHints",
    "ScheduleStore",
    "StoredSchedule",
    "canonical_pipeline_dump",
    "fingerprint_digest",
    "machine_fingerprint",
    "pipeline_digest",
]
