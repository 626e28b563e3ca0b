#!/usr/bin/env python3
"""A/A self-check: is the benchmark steady enough for its own bounds?

    python3 perfbench/aa.py --sets 2 --runs 10

Runs the benchmark command of ``BENCHMARK.json`` on unchanged code:
``--sets`` sets of ``--runs`` runs per workload, every run with another
seed.  For each workload x end-to-end metric it prints

* the spread of each set — distance between the first and third
  quartile of the set's values as a share of their median — which
  should stay below a third of the metric's bound, and
* the largest relative difference between the medians of any two sets,
  which must stay within the bound (ship at half of it).

Exits non-zero when a spread (``setup_s`` excepted) or a median
difference exceeds its bound, or when any run was incorrect.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from summarize import spread  # noqa: E402


def one_run(spec: dict, workload: str, seed: int, seconds: float) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed}: exit code {proc.returncode}\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"] or line["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run "
                           f"({line['failed']} of {line['attempted']} "
                           f"ops failed)")
    return {name: m["value"] for name, m in line["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--json", type=Path,
                        help="also write every value measured here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[workload][metric][set] -> list over runs
    values = {w: {m["name"]: [[] for _ in range(args.sets)]
                  for m in metrics} for w in workloads}
    seed = 1000
    for s in range(args.sets):
        for r in range(args.runs):
            for w in workloads:
                seed += 1
                run = one_run(spec, w, seed, seconds)
                for name, value in run.items():
                    values[w][name][s].append(value)
                print(f"set {s} run {r} {w}: " + "  ".join(
                    f"{k}={v:.5g}" for k, v in run.items()), flush=True)
    if args.json:
        args.json.write_text(json.dumps(values, indent=1))

    bad = 0
    print(f"\n{'workload':14s} {'metric':12s} {'bound':>6s} "
          f"{'spread per set':>24s} {'median diff':>12s}  medians")
    for w in workloads:
        for m in metrics:
            sets = values[w][m["name"]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) if len(v) >= 2 else 0.0 for v in sets]
            diff = max((abs(a - b) / min(a, b) for a, b in
                        itertools.combinations(medians, 2)), default=0.0)
            flags = ""
            if m["name"] == "setup_s":
                pass                    # its spread is not part of the check
            elif max(spreads) > m["bound"]:
                flags += " SPREAD>BOUND"
            elif max(spreads) > m["bound"] / 3:
                flags += " spread>bound/3"
            if diff > m["bound"]:
                flags += " DIFF>BOUND"
            elif diff > m["bound"] / 2:
                flags += " diff>bound/2"
            bad += "BOUND" in flags
            print(f"{w:14s} {m['name']:12s} {m['bound']:6.2f} "
                  f"{' '.join(f'{x:.4f}' for x in spreads):>24s} "
                  f"{diff:12.4f}  "
                  f"{' '.join(f'{x:.5g}' for x in medians)}{flags}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
