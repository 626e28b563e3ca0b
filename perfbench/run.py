#!/usr/bin/env python3
"""perfbench driver: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload kernel_mix --seed 3 \\
        --seconds 12 --trace 0

The workload runs in child processes of their own session, each with a
fresh compile cache and temp directory under ``.perfbench_out/work/``.
With ``--trace 0`` the set-up is repeated in ``SETUPS[workload]`` cold
processes (median = ``setup_s``) and the last one goes on to the timed
window; the last stdout line carries the end-to-end metrics.  With
``--trace 1`` the child also records spans, writes
``.perfbench_out/trace-<workload>.json`` and measures the per-layer
ledger; the last stdout line carries the per-layer metrics.

Whatever happens to a child — normal exit, timeout, ``SIGINT`` to this
driver — its whole session is killed and waited for, ``/dev/shm`` is
diffed, and the work directory is removed.  Leaked processes or
shared-memory segments make the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("compile_apps", "kernel_mix", "serve_thread",
                  "serve_sharded")

#: cold set-ups per untraced run; ``setup_s`` is their median.  The
#: short set-ups are done twice; kernel_mix's is 11 s of gcc, an average
#: over a lot of work already.
SETUPS = {"compile_apps": 2, "kernel_mix": 1, "serve_thread": 2,
          "serve_sharded": 2}

END_TO_END_UNITS = {"setup_s": "s", "op_ms_typ": "ms", "ops_per_s": "1/s",
                    "peak_rss_mb": "MB"}

#: the whole invocation must end well inside the contract's 180 s
DEADLINE_S = 170.0
#: how long a session may take to wind down after its leader exited
LEAK_GRACE_S = 2.0
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "reproshm"


#: every per-layer metric a traced run emits, with its unit
PER_LAYER_UNITS = {
    # compile side, per sweep over the 8 apps
    "lang.spec_ms": "ms", "pipeline.inline_ms": "ms",
    "pipeline.bounds_check_ms": "ms", "compiler.grouping_ms": "ms",
    "compiler.align_scale_ms": "ms", "compiler.storage_ms": "ms",
    "compiler.plan_ms": "ms", "compiler.plan_ms.local_laplacian": "ms",
    "analysis.ranges_ms": "ms", "verify.ms": "ms", "codegen.cgen_ms": "ms",
    # exact counts: two runs of one commit must agree
    "compiler.groups": "count", "compiler.merge_candidates": "count",
    "codegen.c_bytes": "B", "codegen.c_digest_stable": "count",
    "verify.error_diags": "count", "kernel.scratch_bytes": "B",
    # gcc and the kernels it produces
    "codegen.build.gcc_s": "s", "codegen.build.warm_load_ms": "ms",
    "kernel.harris.ms_p50": "ms", "kernel.bilateral.ms_p50": "ms",
    "kernel.interpolate.ms_p50": "ms", "kernel.iunsharp.ms_p50": "ms",
    "kernel.groups_ms.harris": "ms",
    "machine.copy_gb_s": "GB/s",
    "kernel.harris.floor_x": "x", "kernel.bilateral.floor_x": "x",
    "kernel.interpolate.floor_x": "x", "kernel.iunsharp.floor_x": "x",
    "call.overhead_us": "us", "call.tiny_ms_p50": "ms",
    "call.small_ms_p50": "ms",
    "kernel.par_speedup_2t": "x", "runtime.interp_ms.harris": "ms",
    # thread service
    "serve.service.queue_wait_ms_p50": "ms",
    "serve.service.batch_wait_ms_p50": "ms",
    "serve.service.execute_ms_p50": "ms",
    "serve.tiny.ms_p50": "ms", "serve.small.ms_p50": "ms",
    "serve.service.period_overhead_us": "us",
    "serve.service.mean_batch": "frames",
    "serve.service.pool_hit_rate": "ratio",
    "serve.service.native_rate": "ratio",
    "serve.service.rejected": "count", "serve.service.timeouts": "count",
    "serve.first_interp_frame_s": "s", "serve.first_native_frame_s": "s",
    "schedule.store.warm_first_native_s": "s",
    # sharded tier
    "serve.router.spawn_ready_s": "s",
    "serve.router.transport_ms_p50": "ms",
    "serve.worker.queue_wait_ms_p50": "ms",
    "serve.worker.batch_wait_ms_p50": "ms",
    "serve.worker.execute_ms_p50": "ms",
    "serve.router.period_overhead_us": "us",
    "serve.router.shard_imbalance": "ratio",
    "serve.shm.copies_per_frame": "count",
    "serve.router.requeued": "count", "serve.router.worker_deaths": "count",
    "perfbench.leaked_procs": "count", "perfbench.leaked_shm": "count",
    # the cost of looking
    "observe.events_overhead_pct": "%", "perfbench.trace_overhead_pct": "%",
    # the workload's own tail (untraced half-window): too unsteady on a
    # shared box to carry a regression bound, so it is recorded here
    "window.op_ms_tail": "ms",
}


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes whose session id is ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z" and int(fields[3]) == sid:
            pids.append(int(entry))
    return pids


def shm_names() -> set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SHM_PREFIX)}
    except OSError:
        return set()


def supervise(cmd: list[str], env: dict, timeout_s: float
              ) -> tuple[int | None, dict]:
    """Run ``cmd`` as the leader of a new session and leave nothing of
    it behind.

    Returns the exit code (``None`` after a timeout) and the hygiene
    counts.  Whatever happens — normal exit, timeout, an exception or
    signal in this driver — the whole session is killed and waited for
    and the shared-memory segments it left are unlinked.
    """
    shm_before = shm_names()
    hygiene = {"leaked_procs": 0, "leaked_shm": 0, "timed_out": False}
    proc = None
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=sys.stderr, stderr=sys.stderr, start_new_session=True)
        hygiene["session"] = proc.pid
        try:
            proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            hygiene["timed_out"] = True
        else:
            # Anything of the session that outlives its leader leaked.
            # Helpers that exit *because* the leader did (Python's
            # multiprocessing resource tracker ends when its pipe to
            # the parent closes) get a moment to do so; a leaked worker
            # or compiler never goes away by itself.
            expiry = time.monotonic() + LEAK_GRACE_S
            while session_pids(proc.pid) and time.monotonic() < expiry:
                time.sleep(0.02)
            hygiene["leaked_procs"] = len(session_pids(proc.pid))
        return proc.returncode, hygiene
    finally:
        if proc is not None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            expiry = time.monotonic() + 10.0
            while session_pids(proc.pid) and time.monotonic() < expiry:
                time.sleep(0.02)
        leaked = shm_names() - shm_before
        hygiene["leaked_shm"] = len(leaked)
        for name in leaked:
            try:
                (SHM_DIR / name).unlink()
            except OSError:
                pass


def run_child(workload: str, seed: int, seconds: float, trace: int,
              setup_only: bool, timeout_s: float) -> tuple[dict | None, dict]:
    """One child process of a workload, with a fresh compile cache and
    temp directory that are removed afterwards.

    Returns the child's result document (``None`` if it timed out or
    crashed) and the hygiene counts.
    """
    OUT.mkdir(exist_ok=True)
    work = OUT / "work" / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    (work / "cache").mkdir(parents=True)
    (work / "tmp").mkdir()
    out_file = work / "result.json"
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
        REPRO_CACHE_DIR=str(work / "cache"), TMPDIR=str(work / "tmp"),
        PYTHONHASHSEED=str(seed % (1 << 32)))
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--out", str(out_file),
           "--trace-file", str(OUT / f"trace-{workload}.json"),
           "--t0", repr(time.time())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        code, hygiene = supervise(cmd, env, timeout_s)
        result = None
        if code == 0 and out_file.exists():
            result = json.loads(out_file.read_text())
        return result, hygiene
    finally:
        shutil.rmtree(work, ignore_errors=True)


def canary_note(copy_gb_s: float | None) -> str | None:
    """``noisy`` when memory bandwidth is >10% off the recorded value:
    the box is not in the state the bounds were calibrated in."""
    if copy_gb_s is None:
        return None
    recorded = json.loads((HERE / "baseline.json").read_text())[
        "machine.copy_gb_s"]
    drift = copy_gb_s / recorded - 1.0
    if abs(drift) > 0.10:
        return (f"noisy: copy bandwidth {copy_gb_s:.2f} GB/s is "
                f"{drift * 100:+.0f}% off the recorded {recorded:.2f} GB/s")
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 started: float) -> tuple[dict, int]:
    """All children of one invocation; returns the result line and the
    exit code."""
    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - started))

    setups: list[float] = []
    problems: list[str] = []
    leaks = {"leaked_procs": 0, "leaked_shm": 0}
    result = None
    n_children = 1 if trace else SETUPS[workload]
    for i in range(n_children):
        last = i == n_children - 1
        result, hygiene = run_child(workload, seed, seconds, trace,
                                    setup_only=not last,
                                    timeout_s=remaining())
        for key in leaks:
            leaks[key] += hygiene[key]
        if result is None:
            problems.append("child timed out" if hygiene["timed_out"]
                            else "child crashed")
            break
        setups.append(result["setup_s"])
        problems += result["problems"]

    code = 0 if result is not None and not any(leaks.values()) else 1
    for key, value in leaks.items():
        if value:
            problems.append(f"{value} {key.replace('_', ' ')}")
    if result is None:
        # a workload that hangs counts every op as failed
        for problem in problems:
            print(f"{workload}: PROBLEM {problem}")
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}, code

    if trace:
        values = dict(result["layers"])
        values["perfbench.leaked_procs"] = leaks["leaked_procs"]
        values["perfbench.leaked_shm"] = leaks["leaked_shm"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        note = canary_note(values["machine.copy_gb_s"])
    else:
        summary = result["summary"]
        values = {"setup_s": statistics.median(setups),
                  "op_ms_typ": summary["op_ms_typ"],
                  "ops_per_s": summary["ops_per_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        note = canary_note(result.get("copy_gb_s"))
        print(f"{workload}: {summary['ops']} ops in the window, "
              f"{summary['groups']} groups of {summary['group_ops']}, "
              f"p{summary['tail_pct']:g} = {summary['op_ms_tail']:.3f} ms "
              f"({summary['tail_samples_beyond']} samples beyond it in a "
              f"group), {len(setups)} cold set-ups; class medians (ms): "
              + ", ".join(f"{c} {v:.3f}"
                          for c, v in sorted(summary["class_ms"].items())))
    if note:
        print(note)
    failed = result["failed"]
    attempted = max(1, result["attempted"])
    print(f"{workload}: fail_share {failed / attempted:g} "
          f"({failed} of {attempted} ops)")
    for name, metric in metrics.items():
        print(f"{workload}/{name} {metric['value']:.6g} {metric['unit']}")
    for problem in problems:
        print(f"{workload}: PROBLEM {problem}")
    return {"correct": not problems and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": metrics}, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", "--window-s", type=float, default=12.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: spans, trace file and per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    def interrupted(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupted)
    started = time.monotonic()
    try:
        line, code = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace, started)
    except KeyboardInterrupt:
        print("perfbench: interrupted, children cleaned up",
              file=sys.stderr)
        return 130
    print(json.dumps(line), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
