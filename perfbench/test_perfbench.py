"""Self-tests of the benchmark harness.

    python -m pytest perfbench -q

Not part of the repository's tier-1 suite (``testpaths = ["tests"]``):
the smoke test runs all four workloads with 3-second windows and takes
about a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from summarize import (  # noqa: E402
    NAME_RE, geometric_mean, percentile, spread, summarize,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- the summarizer -----------------------------------------------------------

def closed_loop(classes, t_start, seconds):
    """Back-to-back ops cycling over ``classes`` = [(name, latency_s)]."""
    samples, t = [], t_start
    while t < t_start + seconds:
        for name, latency in classes:
            t += latency
            samples.append((name, t, latency))
    return samples


def test_typical_is_geomean_of_class_medians_not_a_flipping_median():
    classes = [("fast", 0.001), ("slow", 0.100)]
    out = summarize(closed_loop(classes, 10.0, 5.0), 10.0, 15.0, 90.0, 2)
    assert out["class_ms"] == pytest.approx({"fast": 1.0, "slow": 100.0})
    assert out["op_ms_typ"] == pytest.approx(10.0)
    # one extra fast sample would flip a plain median from 100 ms to 1 ms;
    # the class-median geomean does not move
    extra = closed_loop(classes, 10.0, 5.0) + [("fast", 14.9999, 0.001)]
    assert summarize(extra, 10.0, 15.0, 90.0, 2)["op_ms_typ"] == \
        pytest.approx(10.0)


def test_groups_are_whole_cycles_and_at_least_five():
    samples = closed_loop([("a", 0.01), ("b", 0.02), ("c", 0.03)], 0.0, 6.0)
    out = summarize(samples, 0.0, 6.0, 99.0, 3)
    assert out["group_ops"] % 3 == 0
    assert out["groups"] >= 5
    assert out["groups"] * out["group_ops"] <= out["ops"]
    assert out["ops_per_s"] == pytest.approx(3 / 0.06)
    # too short for 5 groups of whole cycles: fewer groups, never none
    short = summarize(samples[:12], 0.0, 6.0, 99.0, 3)
    assert (short["groups"], short["group_ops"]) == (4, 3)
    assert summarize(samples[:2], 0.0, 6.0, 99.0, 3)["groups"] == 1


def test_tail_is_the_median_group_of_a_fixed_nearest_rank_percentile():
    # 5 groups of 100 ops with latencies 1..100 ms: p90 of each is 90 ms
    samples = [("a", 1.0 + i * 1e-3, (i % 100 + 1) * 1e-3)
               for i in range(500)]
    out = summarize(samples, 1.0, 2.0, 90.0, 1)
    assert out["groups"] == 5 and out["group_ops"] == 100
    assert out["op_ms_tail"] == pytest.approx(90.0)
    assert out["tail_samples_beyond"] == 10
    # a disturbance that triples every latency of one group moves neither
    # the median group's tail nor the typical latency
    burst = [(c, e, l * 3 if 100 <= i < 200 else l)
             for i, (c, e, l) in enumerate(samples)]
    assert summarize(burst, 1.0, 2.0, 90.0, 1)["op_ms_tail"] == \
        pytest.approx(90.0)
    assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0
    assert percentile([1.0, 2.0, 3.0], 1.0) == 1.0


def test_rate_is_the_median_group_and_ignores_one_stall():
    steady = closed_loop([("a", 0.01)], 0.0, 10.0)
    assert summarize(steady, 0.0, 10.0, 99.0, 1)["ops_per_s"] == \
        pytest.approx(100.0, rel=1e-6)
    # a 1.5 s stall: the mean rate drops 13%, the median group's does not
    stalled = [(c, end + (1.5 if end > 5.0 else 0.0), lat)
               for c, end, lat in steady]
    out = summarize(stalled, 0.0, 11.5, 99.0, 1)
    assert out["ops"] / 11.5 < 88.0
    assert out["ops_per_s"] == pytest.approx(100.0, rel=1e-6)


def test_long_ops_do_not_make_the_rate_jump():
    # one 0.7 s op in a cycle of 1.0 s: whole-op counts in 1 s time
    # slices would alternate; groups of whole cycles give 2 ops/s exactly
    samples = closed_loop([("long", 0.7), ("short", 0.3)], 0.0, 12.0)
    out = summarize(samples, 0.0, 12.0, 90.0, 2)
    assert out["ops_per_s"] == pytest.approx(2.0, rel=1e-6)


def test_only_ops_ending_inside_the_window_count_and_the_lead_in_clocks():
    samples = closed_loop([("a", 0.1)], 0.0, 10.0)
    out = summarize(samples, 2.05, 8.05, 99.0, 1)   # edges between ends
    assert out["ops"] == 60
    # the first group's clock starts at the last completion of the lead-in
    assert out["ops_per_s"] == pytest.approx(10.0, rel=1e-6)
    with pytest.raises(ValueError):
        summarize([("a", 0.5, 0.1)], 1.0, 2.0, 99.0, 1)


def test_helpers():
    assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)
    assert spread([10.0] * 10) == 0.0
    assert spread(list(range(95, 105))) == pytest.approx(5.5 / 99.5)


# -- names and the contract ---------------------------------------------------

def test_every_emitted_name_is_well_formed_and_declared_once():
    names = (list(run.WORKLOAD_NAMES) + list(run.END_TO_END_UNITS)
             + list(run.PER_LAYER_UNITS))
    assert all(NAME_RE.match(n) for n in names), names
    assert len(set(names)) == len(names)
    units = list(run.END_TO_END_UNITS.values()) \
        + list(run.PER_LAYER_UNITS.values())
    assert all(len(u) <= 16 and all(c.isalnum() or c in "_/%.-" for c in u)
               for u in units)


def test_benchmark_json_matches_what_run_py_emits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(run.WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER_UNITS
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])
    assert 1 <= SPEC["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


# -- the span recorder --------------------------------------------------------

def test_span_tree_parents_nesting_and_self_times():
    rec = spans.Recorder()
    op = rec.new_op()
    with rec.span("op", op=op) as outer:
        with rec.span("child.a"):
            time.sleep(0.002)
        with rec.span("child.b"):
            time.sleep(0.002)
    assert spans.validate(rec.spans) == []
    by_name = {s.name: s for s in rec.spans}
    assert by_name["op"].parent is None and by_name["op"].id == outer
    assert by_name["child.a"].parent == outer
    assert by_name["child.b"].parent == outer
    assert {s.op for s in rec.spans} == {op}
    selfs = rec.self_times()
    assert all(v >= 0 for v in selfs.values())
    assert selfs[outer] == pytest.approx(
        by_name["op"].duration - by_name["child.a"].duration
        - by_name["child.b"].duration)
    assert selfs[outer] < by_name["op"].duration - 0.003


def test_self_time_subtracts_the_union_of_overlapping_children():
    S = spans.Span
    tree = [S(1, "op", 0.0, 10.0, None, 1, 0),
            S(2, "a", 1.0, 4.0, 1, 1, 0),      # overlaps b on [3, 4]
            S(3, "b", 3.0, 6.0, 1, 1, 0),
            S(4, "c", 8.0, 12.0, 1, 1, 0)]     # clipped to the parent
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == 3.0 and selfs[3] == 3.0


def test_validate_reports_broken_trees():
    S = spans.Span
    assert any("never recorded" in p for p in
               spans.validate([S(1, "a", 0.0, 1.0, 99, 1, 0)]))
    assert any("outside" in p for p in spans.validate(
        [S(1, "a", 0.0, 1.0, None, 1, 0), S(2, "b", 0.5, 1.5, 1, 1, 0)]))
    assert any("op" in p for p in spans.validate(
        [S(1, "a", 0.0, 1.0, None, 1, 0), S(2, "b", 0.2, 0.4, 1, 2, 0)]))
    # a phase container without an op may hold spans of many ops
    assert spans.validate(
        [S(1, "setup", 0.0, 1.0, None, None, 0),
         S(2, "op", 0.1, 0.2, 1, 1, 0), S(3, "op", 0.3, 0.4, 1, 2, 0)]) == []
    assert any("duplicate" in p for p in spans.validate(
        [S(1, "a", 0.0, 1.0, None, 1, 0), S(1, "b", 0.0, 1.0, None, 1, 0)]))


def test_disabled_recorder_records_nothing_and_chrome_round_trip(tmp_path):
    off = spans.Recorder(enabled=False)
    with off.span("x"):
        off.add("y", 0.0, 1.0)
    assert off.spans == [] and off.new_op() == 1
    rec = spans.Recorder()
    with rec.span("a", op=rec.new_op()):
        with rec.span("b"):
            pass
    doc = json.loads(rec.write_chrome(tmp_path / "t.json").read_text())
    assert spans.validate_chrome(doc) == []
    assert all(NAME_RE.match(e["name"]) for e in doc["traceEvents"])
    assert all(e["args"]["self_us"] >= 0 for e in doc["traceEvents"])


# -- the four workloads, end to end -------------------------------------------

def leftovers():
    work = run.OUT / "work"
    return (sorted(run.shm_names()),
            sorted(p.name for p in work.iterdir()) if work.exists() else [])


def test_smoke_all_four_workloads_short_windows():
    # 3 s, not 1: a window must outlast the longest op (one compile of
    # local_laplacian takes 1.1 s) for any op to end inside it
    started = time.monotonic()
    for workload in run.WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--window-s", "3", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert set(line["metrics"]) == set(run.END_TO_END_UNITS)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == run.END_TO_END_UNITS[name]
            assert math.isfinite(metric["value"]) and metric["value"] > 0
        assert f"{workload}/setup_s" in proc.stdout
    assert leftovers() == ([], [])
    assert time.monotonic() - started < 90


def test_timed_out_child_is_killed_and_leaves_nothing():
    result, hygiene = run.run_child("serve_sharded", 3, 30.0, 0,
                                    setup_only=False, timeout_s=4.0)
    assert result is None and hygiene["timed_out"]
    assert leftovers() == ([], [])
    assert run.session_pids(hygiene["session"]) == []


def test_a_process_left_behind_is_counted_then_killed():
    # the leader starts a detached sleeper in its session and exits at
    # once: exactly the failure an earlier attempt at this benchmark had
    code, hygiene = run.supervise(
        [sys.executable, "-c",
         "import subprocess, sys; subprocess.Popen("
         "[sys.executable, '-c', 'import time; time.sleep(600)'])"],
        dict(os.environ), timeout_s=30.0)
    assert code == 0 and not hygiene["timed_out"]
    assert hygiene["leaked_procs"] == 1
    assert run.session_pids(hygiene["session"]) == []


def test_a_clean_exit_counts_no_leak():
    code, hygiene = run.supervise([sys.executable, "-c", "pass"],
                                  dict(os.environ), timeout_s=30.0)
    assert code == 0
    assert hygiene["leaked_procs"] == 0 and hygiene["leaked_shm"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compile_apps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
