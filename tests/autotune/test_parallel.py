"""Parallel autotuning: threaded compiles, skip recording, report JSON."""

import numpy as np
import pytest

from repro.apps.harris import build_pipeline
from repro.autotune import tuner as tuner_mod
from repro.autotune.tuner import (
    SkippedConfig, TuneConfig, TuneResult, TuningReport, autotune,
)
from repro.codegen.build import compiler_available


@pytest.fixture(scope="module")
def harris_small():
    app = build_pipeline()
    R, C = app.params["R"], app.params["C"]
    values = {R: 96, C: 96}
    inputs = app.make_inputs(values, np.random.default_rng(1))
    return app, values, inputs


SPACE = [TuneConfig((16, 16), 0.4), TuneConfig((32, 32), 0.4),
         TuneConfig((16, 64), 0.2), TuneConfig((64, 64), 0.5)]


def test_parallel_interp_matches_serial_coverage(harris_small):
    """Workers change wall-clock, not the set or order of measurements."""
    app, values, inputs = harris_small
    serial = autotune(app.outputs, values, values, inputs, space=SPACE,
                      backend="interp", n_threads=2, repeats=1)
    parallel = autotune(app.outputs, values, values, inputs, space=SPACE,
                        backend="interp", n_threads=2, repeats=1,
                        n_workers=2)
    assert [r.config for r in serial.results] == \
        [r.config for r in parallel.results] == SPACE
    assert parallel.n_workers == 2 and serial.n_workers == 1
    assert not serial.skipped and not parallel.skipped


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
def test_second_native_run_all_cache_hits(harris_small, tmp_path):
    app, values, inputs = harris_small
    first = autotune(app.outputs, values, values, inputs, space=SPACE[:3],
                     n_threads=2, repeats=1, n_workers=2,
                     cache_dir=tmp_path)
    assert first.cache_misses == 3 and first.cache_hits == 0
    second = autotune(app.outputs, values, values, inputs, space=SPACE[:3],
                      n_threads=2, repeats=1, n_workers=2,
                      cache_dir=tmp_path)
    assert second.all_cache_hits
    assert second.cache_hits == 3
    data = second.to_dict()
    assert data["cache"] == {"hits": 3, "misses": 0}
    assert all(r["cache_hit"] for r in data["results"])


def test_plan_failure_recorded_not_fatal(harris_small, monkeypatch):
    """A middle-end crash on one configuration skips it with a reason,
    on the serial path and on the threaded one."""
    app, values, inputs = harris_small
    real_compile_plan = tuner_mod.compile_plan

    def exploding(outputs, estimates, options):
        if options.tile_sizes == (32, 32):
            raise RuntimeError("synthetic middle-end failure")
        return real_compile_plan(outputs, estimates, options)

    monkeypatch.setattr(tuner_mod, "compile_plan", exploding)
    for n_workers in (1, 2):
        report = autotune(app.outputs, values, values, inputs, space=SPACE,
                          backend="interp", n_threads=2, repeats=1,
                          n_workers=n_workers)
        assert [r.config for r in report.results] == \
            [c for c in SPACE if c.tile_sizes != (32, 32)]
        assert len(report.skipped) == 1
        skip = report.skipped[0]
        assert skip.config.tile_sizes == (32, 32)
        assert "plan" in skip.reason and "synthetic" in skip.reason


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
def test_build_failure_recorded_not_fatal(harris_small, monkeypatch,
                                          tmp_path):
    """A BuildError on one configuration must not abort the sweep, on
    the serial path or the threaded one."""
    from repro.codegen import build as build_mod
    app, values, inputs = harris_small
    real = build_mod.compile_artifact
    calls = []

    def failing(plan, **kwargs):
        calls.append(plan)
        if len(calls) == 1:
            raise build_mod.BuildError("synthetic compiler explosion")
        return real(plan, **kwargs)

    monkeypatch.setattr(build_mod, "compile_artifact", failing)
    for n_workers in (1, 2):
        calls.clear()
        report = autotune(app.outputs, values, values, inputs,
                          space=SPACE[:2], n_threads=2, repeats=1,
                          n_workers=n_workers,
                          cache_dir=tmp_path / f"w{n_workers}")
        assert len(report.results) == 1
        assert len(report.skipped) == 1
        assert report.skipped[0].reason.startswith("build:")
        assert "synthetic compiler explosion" in report.skipped[0].reason


def test_invalid_options_recorded_not_fatal(harris_small):
    """A config whose options are invalid (tile size 0) is skipped with
    a reason instead of aborting the sweep at task construction."""
    app, values, inputs = harris_small
    space = [TuneConfig((0, 0), 0.4), TuneConfig((16, 16), 0.4)]
    report = autotune(app.outputs, values, values, inputs, space=space,
                      backend="interp", n_threads=2, repeats=1)
    assert [r.config for r in report.results] == [space[1]]
    assert len(report.skipped) == 1
    assert report.skipped[0].reason.startswith("options:")


def test_report_json_roundtrip():
    report = TuningReport(
        results=[TuneResult(TuneConfig((16, 64), 0.4), 12.5, 4.25, 3,
                            compile_s=1.5, cache_hit=False)],
        skipped=[SkippedConfig(TuneConfig((8, 8), 0.2), "plan: boom")],
        elapsed_s=9.75, backend="native", n_workers=4, n_threads=8)
    back = TuningReport.from_json(report.to_json())
    assert back.results == report.results
    assert back.skipped == report.skipped
    assert back.elapsed_s == report.elapsed_s
    assert back.n_workers == 4 and back.n_threads == 8
    assert back.best().config == TuneConfig((16, 64), 0.4)


def test_report_save_load(tmp_path):
    report = TuningReport(
        results=[TuneResult(TuneConfig((32,), 0.2), 1.0, 0.5, 1)],
        backend="interp")
    path = report.save(tmp_path / "report.json")
    assert TuningReport.load(path).results == report.results


def test_farm_serial_path_yields_in_order():
    """One worker compiles on the calling thread, in configuration order,
    and only when the caller asks for the next configuration — so a
    serial sweep never times while a build runs."""
    import threading
    compiled = []

    def compile_one(trial):
        compiled.append((trial.index, threading.get_ident()))
        return trial

    trials = [tuner_mod._Trial(i, c) for i, c in enumerate(SPACE)]
    order = []
    for trial in tuner_mod._compiled(trials, 1, compile_one):
        order.append(trial.index)
        assert len(compiled) == len(order)
    assert order == list(range(len(SPACE)))
    assert {tid for _, tid in compiled} == {threading.get_ident()}


def test_threaded_sweep_traces_every_compile(harris_small):
    """Compiles on worker threads record their compiler spans on the
    caller's tracer: one ``compile_plan`` root per configuration."""
    from repro.observe import tracing
    app, values, inputs = harris_small
    with tracing() as tracer:
        report = autotune(app.outputs, values, values, inputs, space=SPACE,
                          backend="interp", n_threads=2, repeats=1,
                          n_workers=2)
    assert len(report.results) == len(SPACE)
    names = [span.name for span in tracer.spans()]
    assert names.count("compile_plan") == len(SPACE)


def test_random_search_parallel_and_skips(harris_small):
    from repro.autotune.random_search import random_search
    app, values, inputs = harris_small
    serial = random_search(app.outputs, values, values, inputs,
                           budget=3, backend="interp", seed=3)
    parallel = random_search(app.outputs, values, values, inputs,
                             budget=3, backend="interp", seed=3,
                             n_workers=2)
    assert [r.config for r in serial.results] == \
        [r.config for r in parallel.results]
    data = parallel.to_dict()
    assert len(data["results"]) == len(parallel.results)
