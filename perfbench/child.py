"""One workload in one process: set-up, timed window(s), teardown.

Started by ``run.py`` in its own session with a fresh compile cache;
writes one JSON document to ``--out``.  ``setup_s`` runs from the
moment the driver spawned this process (``--t0``, wall clock) to the
moment the workload is ready for its timed window.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # imported here: importing the program is part of set-up time
    from spans import Recorder, validate
    from workloads import WORKLOADS, measure

    workload = WORKLOADS[args.workload]
    rec = Recorder(enabled=bool(args.trace))
    result: dict = {"workload": workload.name}
    with rec.span("setup." + workload.name):
        state = workload.setup(args.seed, rec)
    result["setup_s"] = time.time() - args.t0
    problems = list(state.problems)
    if hasattr(state, "copy_gb_s"):
        result["copy_gb_s"] = state.copy_gb_s
    try:
        if args.setup_only:
            pass
        elif not args.trace:
            window, summary = measure(workload, state, args.seconds, rec)
        else:
            # tracing overhead = the same window, spans off then on
            plain, plain_summary = measure(workload, state, args.seconds / 2,
                                           Recorder(enabled=False))
            window, summary = measure(workload, state, args.seconds / 2, rec)
            problems += plain.problems
    finally:
        workload.close(state)

    if not args.setup_only:
        problems += window.problems
        result.update(
            attempted=window.attempted, failed=window.failed,
            peak_rss_mb=window.peak_rss_mb, summary=summary)
        if args.trace:
            from layers import ledger
            layer_metrics, layer_problems = ledger(
                rec, args.seed, args.seconds, args.work)
            layer_metrics["window.op_ms_tail"] = plain_summary["op_ms_tail"]
            layer_metrics["perfbench.trace_overhead_pct"] = (
                1.0 - summary["ops_per_s"] / plain_summary["ops_per_s"]
            ) * 100.0
            problems += layer_problems + validate(rec.spans)
            result.update(layers=layer_metrics, spans=len(rec.spans),
                          attempted=window.attempted + plain.attempted,
                          failed=window.failed + plain.failed)
            rec.write_chrome(args.trace_file)
    result["problems"] = problems
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
