"""Tests for the persistent schedule store: content digests, machine
fingerprints, atomic publish/lookup, and the build/autotune fast paths."""

import json

import numpy as np
import pytest

from repro.apps import iunsharp
from repro.apps.harris import build_pipeline as build_harris
from repro.autotune.tuner import TuneConfig, autotune
from repro.codegen.build import build_native, compiler_available
from repro.compiler.options import CompileOptions
from repro.compiler.plan import compile_plan
from repro.schedule.store import (
    STORE_VERSION, ScheduleStore, StoredSchedule, canonical_pipeline_dump,
    fingerprint_digest, machine_fingerprint, pipeline_digest,
)

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler available")


def _iunsharp():
    app = iunsharp.build_pipeline()
    values = {app.params["R"]: 48, app.params["C"]: 40}
    return app, values


# -- pipeline content digest -------------------------------------------------

def test_digest_stable_across_independent_builds():
    # two builds mint fresh auto-named DSL variables; the canonical
    # dump renames them positionally so the digests agree
    app_a, values_a = _iunsharp()
    app_b, values_b = _iunsharp()
    assert pipeline_digest(app_a.outputs, values_a) == \
        pipeline_digest(app_b.outputs, values_b)
    assert canonical_pipeline_dump(app_a.outputs, values_a) == \
        canonical_pipeline_dump(app_b.outputs, values_b)


def test_digest_sensitive_to_estimates_and_structure():
    app, values = _iunsharp()
    base = pipeline_digest(app.outputs, values)
    bigger = {app.params["R"]: 96, app.params["C"]: 40}
    assert pipeline_digest(app.outputs, bigger) != base

    harris = build_harris()
    hv = {harris.params["R"]: 48, harris.params["C"]: 40}
    assert pipeline_digest(harris.outputs, hv) != base


def test_digest_shape():
    app, values = _iunsharp()
    digest = pipeline_digest(app.outputs, values)
    assert len(digest) == 32
    assert int(digest, 16) >= 0  # hex


# -- machine fingerprint -----------------------------------------------------

def test_fingerprint_digest_tracks_content():
    fp = machine_fingerprint()
    assert {"cpus", "machine", "system", "compiler", "flags"} <= set(fp)
    assert fingerprint_digest(fp) == fingerprint_digest(dict(fp))
    other = dict(fp, cpus=fp["cpus"] + 1)
    assert fingerprint_digest(other) != fingerprint_digest(fp)


# -- StoredSchedule ----------------------------------------------------------

def _entry(pipeline="a" * 32, fingerprint=None, **kw):
    return StoredSchedule(
        pipeline=pipeline,
        fingerprint=fingerprint or machine_fingerprint(),
        options=CompileOptions.optimized((16, 16)).to_dict(),
        **kw)


def test_stored_schedule_round_trip():
    entry = _entry(hints={"force_group": [["a", "b"]]},
                   tune_result={"tile_sizes": [16, 16],
                                "overlap_threshold": 0.4,
                                "time_parallel_ms": 1.5},
                   artifact={"key": "k", "flags": ["-O3"],
                             "instrument": False},
                   created=123.0)
    again = StoredSchedule.from_dict(entry.to_dict())
    assert again == entry
    assert again.compile_options() == CompileOptions.optimized((16, 16))

    bare = StoredSchedule.from_dict(_entry().to_dict())
    assert bare.hints is None and bare.tune_result is None
    assert bare.schedule_hints() is None


# -- publish / lookup --------------------------------------------------------

def test_publish_lookup_round_trip(tmp_path):
    store = ScheduleStore(tmp_path)
    fp = machine_fingerprint()
    assert store.lookup("a" * 32, fp) is None
    path = store.publish(_entry())
    assert path.parent == tmp_path
    found = store.lookup("a" * 32, fp)
    assert found is not None
    assert found.created > 0  # publish stamps a missing timestamp
    # atomic publish leaves no temporaries behind
    assert not list(tmp_path.glob(".*.tmp"))


def test_lookup_rejects_fingerprint_mismatch(tmp_path):
    # a file at the *right path* whose embedded fingerprint differs
    # (stale digest scheme, hand-copied store, ...) must be skipped
    store = ScheduleStore(tmp_path)
    fp = machine_fingerprint()
    entry = _entry(fingerprint=dict(fp, cpus=fp["cpus"] + 1))
    path = store.path_for("a" * 32, fp)
    path.write_text(json.dumps(entry.to_dict()))
    assert store.lookup("a" * 32, fp) is None
    # published under its own fingerprint it lands at a different path
    assert store.publish(entry) != path


def test_lookup_rejects_version_and_pipeline_mismatch(tmp_path):
    store = ScheduleStore(tmp_path)
    fp = machine_fingerprint()
    store.publish(_entry(version=STORE_VERSION + 1))
    assert store.lookup("a" * 32, fp) is None

    doc = _entry().to_dict()
    doc["pipeline"] = "b" * 32  # body disagrees with the file name
    store.path_for("a" * 32, fp).write_text(json.dumps(doc))
    assert store.lookup("a" * 32, fp) is None


def test_lookup_tolerates_corrupt_files(tmp_path):
    store = ScheduleStore(tmp_path)
    fp = machine_fingerprint()
    store.path_for("a" * 32, fp).write_text("{definitely not json")
    assert store.lookup("a" * 32, fp) is None
    assert store.entries() == []


def test_last_writer_wins(tmp_path):
    store = ScheduleStore(tmp_path)
    store.publish(_entry(created=1.0))
    store.publish(_entry(created=2.0))
    found = store.lookup("a" * 32, machine_fingerprint())
    assert found.created == 2.0
    assert len(store.entries()) == 1


def test_manifest_and_clear(tmp_path):
    store = ScheduleStore(tmp_path)
    store.publish(_entry(tune_result={"tile_sizes": [16, 16],
                                      "overlap_threshold": 0.4,
                                      "time_parallel_ms": 2.5}))
    store.publish(_entry(pipeline="b" * 32,
                         hints={"force_group": [["a", "b"]]}))
    manifest = store.manifest()
    assert manifest["root"] == str(tmp_path)
    assert len(manifest["entries"]) == 2
    by_pipe = {e["pipeline"]: e for e in manifest["entries"]}
    assert by_pipe["a" * 32]["tuned_ms"] == 2.5
    assert by_pipe["b" * 32]["hinted"] is True
    assert store.clear() == 2
    assert store.entries() == []


# -- build_native integration ------------------------------------------------

def _plan():
    app, values = _iunsharp()
    return app, values, compile_plan(app.outputs, values,
                                     CompileOptions.optimized((16, 16)))


@needs_cc
def test_build_native_store_round_trip(tmp_path):
    app, values, plan = _plan()
    cold = build_native(plan, "store_rt", cache_dir=tmp_path, store="rw")
    assert cold.loaded_from_store is False
    store = ScheduleStore(tmp_path / "schedules")
    [entry] = store.entries()
    assert entry.artifact["key"] == cold.build_info.key
    assert entry.tune_result is None

    # a fresh plan (as a cold process would rebuild it) dlopens the
    # published artifact: no compiler run, compile_s == 0
    app2, values2, plan2 = _plan()
    warm = build_native(plan2, "store_rt", cache_dir=tmp_path, store="ro")
    assert warm.loaded_from_store is True
    assert warm.build_info.cache_hit is True
    assert warm.build_info.compile_s == 0.0

    got_cold = cold(values, app.make_inputs(values, np.random.default_rng(0)))
    got_warm = warm(values2,
                    app2.make_inputs(values2, np.random.default_rng(0)))
    for name in got_cold:
        assert np.array_equal(got_cold[name], got_warm[name])


def _assert_old_version_rebuilt(tmp_path, version: int) -> None:
    assert STORE_VERSION == 3
    app, values, plan = _plan()
    build_native(plan, f"store_v{version}", cache_dir=tmp_path, store="rw")
    store = ScheduleStore(tmp_path / "schedules")
    [entry] = store.entries()
    assert entry.artifact is not None
    path = store.path_for(entry.pipeline, entry.fingerprint)
    doc = json.loads(path.read_text())
    doc["version"] = version  # same real artifact, old contract
    path.write_text(json.dumps(doc))
    assert store.lookup(entry.pipeline, entry.fingerprint) is None

    app2, values2, plan2 = _plan()
    rebuilt = build_native(plan2, f"store_v{version}", cache_dir=tmp_path,
                           store="ro")
    assert rebuilt.loaded_from_store is False
    inputs = app2.make_inputs(values2, np.random.default_rng(0))
    assert rebuilt(values2, inputs)


@needs_cc
def test_version_1_entry_is_never_loaded(tmp_path):
    """A version-1 entry names an artifact built before arenas were
    checked out per call; such a library would race when called without
    the lock, so it must be rebuilt, never dlopened from the store."""
    _assert_old_version_rebuilt(tmp_path, 1)


@needs_cc
def test_version_2_entry_is_never_loaded(tmp_path):
    """A version-2 entry does not record the compiler flags its artifact
    was built with, so it cannot be matched to a build; it must be
    rebuilt, never dlopened from the store."""
    _assert_old_version_rebuilt(tmp_path, 2)


@needs_cc
@pytest.mark.parametrize("published,requested", [
    (("-O0",), ()),
    ((), ("-O0",)),
], ids=["extra-then-plain", "plain-then-extra"])
def test_store_miss_on_extra_flags_mismatch(tmp_path, published, requested):
    """An entry built with other compiler flags (a debug or sanitizer
    build) is never loaded for a build that asks for different ones."""
    app, values, plan = _plan()
    build_native(plan, "flags_a", cache_dir=tmp_path, store="rw",
                 extra_flags=published)
    app2, values2, plan2 = _plan()
    native = build_native(plan2, "flags_b", cache_dir=tmp_path, store="ro",
                          extra_flags=requested)
    assert native.loaded_from_store is False
    app3, values3, plan3 = _plan()
    fresh = build_native(plan3, "flags_c", cache_dir=tmp_path / "fresh",
                         extra_flags=requested)
    assert native.build_info.key == fresh.build_info.key


@needs_cc
def test_store_miss_on_option_mismatch(tmp_path):
    app, values, plan = _plan()
    build_native(plan, "opt_a", cache_dir=tmp_path, store="rw")
    other = compile_plan(app.outputs, values, CompileOptions.base())
    rebuilt = build_native(other, "opt_b", cache_dir=tmp_path, store="ro")
    assert rebuilt.loaded_from_store is False


@needs_cc
def test_store_ro_never_publishes(tmp_path):
    _, _, plan = _plan()
    build_native(plan, "ro_only", cache_dir=tmp_path, store="ro")
    assert ScheduleStore(tmp_path / "schedules").entries() == []


def test_build_native_rejects_bad_store_mode():
    _, _, plan = _plan()
    with pytest.raises(ValueError, match="store"):
        build_native(plan, "bad", store="rx")


# -- autotune integration ----------------------------------------------------

@pytest.fixture(scope="module")
def tune_setup():
    app, values = _iunsharp()
    inputs = app.make_inputs(values, np.random.default_rng(1))
    return app, values, inputs


SPACE = [TuneConfig((16, 16), 0.4), TuneConfig((32, 32), 0.4),
         TuneConfig((16, 32), 0.4)]


def test_autotune_store_hit_accounting(tmp_path, tune_setup):
    app, values, inputs = tune_setup
    first = autotune(app.outputs, values, values, inputs, space=SPACE,
                     backend="interp", repeats=1, cache_dir=tmp_path,
                     store="rw")
    assert len(first.results) == len(SPACE) and not first.skipped
    [entry] = ScheduleStore(tmp_path / "schedules").entries()
    assert entry.tune_result is not None

    second = autotune(app.outputs, values, values, inputs, space=SPACE,
                      backend="interp", repeats=1, cache_dir=tmp_path,
                      store="ro")
    # sweep collapses to the stored winner; everything else is skipped
    # with an explicit reason, and the accounting still covers the space
    assert len(second.results) == 1
    assert [s.reason for s in second.skipped] == ["store_hit"] * (
        len(SPACE) - 1)
    assert len(second.results) + len(second.skipped) == len(SPACE)
    assert second.best(parallel=True).config == \
        first.best(parallel=True).config
    assert {s.config for s in second.skipped} == \
        set(SPACE) - {second.results[0].config}


def test_autotune_store_winner_outside_space(tmp_path, tune_setup):
    app, values, inputs = tune_setup
    autotune(app.outputs, values, values, inputs, space=SPACE,
             backend="interp", repeats=1, cache_dir=tmp_path, store="rw")
    narrower = [c for c in SPACE if c.tile_sizes != (16, 16)]
    report = autotune(app.outputs, values, values, inputs, space=narrower,
                      backend="interp", repeats=1, cache_dir=tmp_path,
                      store="ro")
    # the stored winner is still measured even if the caller's space
    # no longer contains it — it is the best known schedule
    assert len(report.results) == 1
    assert all(s.reason == "store_hit" for s in report.skipped)
    assert len(report.skipped) == len(narrower) or \
        report.results[0].config in narrower


def test_autotune_ignores_untimed_and_mismatched_hint_entries(
        tmp_path, tune_setup):
    app, values, inputs = tune_setup
    digest = pipeline_digest(app.outputs, values)
    store = ScheduleStore(tmp_path / "schedules")
    # an untimed build_native publication must not short-circuit a sweep
    store.publish(StoredSchedule(
        pipeline=digest, fingerprint=machine_fingerprint(),
        options=CompileOptions.optimized((16, 16)).to_dict()))
    report = autotune(app.outputs, values, values, inputs, space=SPACE,
                      backend="interp", repeats=1, cache_dir=tmp_path,
                      store="ro")
    assert len(report.results) == len(SPACE) and not report.skipped

    # a tuned entry recorded under *different* hints is ignored too
    autotune(app.outputs, values, values, inputs, space=SPACE,
             backend="interp", repeats=1, cache_dir=tmp_path, store="rw")
    from repro.schedule import ScheduleHints
    hinted = autotune(app.outputs, values, values, inputs, space=SPACE,
                      backend="interp", repeats=1, cache_dir=tmp_path,
                      store="ro",
                      hints=ScheduleHints(
                          force_group=[("iblurx", "iblury")]))
    assert len(hinted.results) == len(SPACE)
    assert not any(s.reason == "store_hit" for s in hinted.skipped)


def test_autotune_rejects_bad_store_mode(tune_setup):
    app, values, inputs = tune_setup
    with pytest.raises(ValueError, match="store"):
        autotune(app.outputs, values, values, inputs, space=SPACE,
                 backend="interp", store="wr")
