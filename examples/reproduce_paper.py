#!/usr/bin/env python
"""Regenerate every figure and table of the paper in one run.

Thin wrapper over the experiment harness: renders each figure as an ASCII
chart, writes CSVs (plot-ready with gnuplot/matplotlib) into ``results/``
and prints a closing summary of paper-shape checks.

Run (≈30 s at the small scale, minutes at default):
    python examples/reproduce_paper.py --scale small

Shard each figure's trials over worker processes and cache results so a
rerun only recomputes what changed:
    python examples/reproduce_paper.py --scale small --workers 4 --cache-dir .repro-cache

Fan out to remote workers instead (``repro-experiment worker serve`` on
each host, docs/DISTRIBUTED.md), and journal the run for
``obs summary|trace|validate`` (docs/OBSERVABILITY.md):
    python examples/reproduce_paper.py --hosts nodeA:7700,nodeB:7700 --journal run.jsonl

Results are bit-identical for any ``--workers``/``--hosts`` setting.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import time

from repro.analysis.ascii_chart import render_figure, render_table
from repro.analysis.curves import FigureResult
from repro.experiments import FIGURES, TABLES
from repro.runtime import JournalReporter, RuntimeOptions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small",
                        choices=["small", "default", "paper"])
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results"))
    parser.add_argument("--seed", type=int, default=20060619)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per experiment (results identical)")
    parser.add_argument("--hosts", default=None,
                        help="comma-separated host:port worker list for cluster "
                             "execution (docs/DISTRIBUTED.md); trusted networks only")
    parser.add_argument("--cache-dir", type=pathlib.Path, default=None,
                        help="content-addressed results store for instant reruns")
    parser.add_argument("--journal", type=pathlib.Path, default=None,
                        help="append a JSONL run journal for obs summary/trace/"
                             "validate (docs/OBSERVABILITY.md)")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as stack:
        journal = (stack.enter_context(JournalReporter(args.journal))
                   if args.journal else None)
        runtime = RuntimeOptions.create(workers=args.workers,
                                        cache_dir=args.cache_dir,
                                        hosts=args.hosts, progress=journal)
        run_catalog(args, runtime)


def run_catalog(args: argparse.Namespace, runtime: RuntimeOptions) -> None:
    """Regenerate every catalog entry through ``runtime``, CSVs into ``args.out``."""
    started = time.perf_counter()

    for name, fn in list(FIGURES.items()) + list(TABLES.items()):
        t0 = time.perf_counter()
        result = fn(scale=args.scale, seed=args.seed, runtime=runtime)
        elapsed = time.perf_counter() - t0
        if isinstance(result, FigureResult):
            print(render_figure(result))
        else:
            print(render_table(result))
        (args.out / f"{name}.csv").write_text(result.to_csv())
        print(f"  [{name}: {elapsed:.1f}s, CSV -> {args.out / (name + '.csv')}]\n")

    total = time.perf_counter() - started
    print(f"Regenerated {len(FIGURES)} figures + {len(TABLES)} tables "
          f"in {total:.0f}s at scale={args.scale!r}.")
    print("Compare against the paper's expectations in EXPERIMENTS.md.")


if __name__ == "__main__":
    main()
