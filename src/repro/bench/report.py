"""Generate the full experiment report in one command.

Usage::

    python -m repro.bench.report [--scale small|paper] [--threads N]
                                 [-o report.md]

Runs every table/figure harness in sequence — Figure 5 (tiling-strategy
models), Figure 6 (tight vs naive overlap, measured), Figure 8 (pyramid
grouping), Table 2, Figure 10 (variants), Figure 9 (autotuning sweep),
and the ablations — and writes a single markdown report.  This is how
EXPERIMENTS.md's measured sections are produced.
"""

from __future__ import annotations

import argparse
import io
import platform
import sys
import time


def generate_report(scale: str = "small", threads: int = 2,
                    search_budget: int = 8,
                    grid: str = "coarse", workers: int = 1) -> str:
    """Run every harness and return the full markdown report."""
    from repro.bench import (
        ablations, figure5, figure6, figure8, figure9, figure10, table2,
    )

    out = io.StringIO()
    start = time.time()
    print(f"# Experiment report (scale={scale}, threads={threads})", file=out)
    print(f"\nmachine: {platform.platform()}, "
          f"python {platform.python_version()}", file=out)

    figure5.run_figure5(out=out)
    figure6.run_figure6(measure=True, out=out)
    figure8.run_figure8(size=2048 if scale == "paper" else 512, out=out)
    table2.run_table2(scale, threads, search_budget=search_budget, out=out)
    figure10.run_figure10(scale, threads=(1, threads), out=out)
    figure9.run_figure9(scale, threads=threads, grid=grid,
                        workers=workers, out=out)
    ablations.run_ablations(scale, "harris", threads, out=out)

    print(f"\n\n_total report generation time: "
          f"{time.time() - start:.0f}s_", file=out)
    return out.getvalue()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=["paper", "small", "tiny"])
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--search-budget", type=int, default=8)
    parser.add_argument("--grid", default="coarse",
                        choices=["coarse", "paper"])
    parser.add_argument("--workers", type=int, default=1,
                        help="compile threads for the autotune sweep")
    parser.add_argument("-o", "--output", default=None)
    args = parser.parse_args()
    report = generate_report(args.scale, args.threads, args.search_budget,
                             args.grid, args.workers)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(report)


if __name__ == "__main__":
    main()
