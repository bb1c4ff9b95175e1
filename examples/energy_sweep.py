#!/usr/bin/env python
"""Reproduce a full paper figure from the command line.

Runs any of the ten evaluation figures (Figures 7-16) at quick or paper
scale and prints the series table, the ASCII chart, and the shape-check
verdicts.

Usage::

    python examples/energy_sweep.py fig09            # quick scale
    python examples/energy_sweep.py fig16 --full     # paper scale (slow!)
    python examples/energy_sweep.py fig09 --workers 4 --store figures.sqlite
    python examples/energy_sweep.py --list

``--workers N`` fans the figure's grid out over N worker processes and
``--store`` persists every run in a SQLite result-store file, so
re-rendering a figure (or another figure over the same scenarios) costs
nothing — both are provided by the campaign
engine (``repro.experiments.campaign``; see docs/campaigns.md).
"""

import sys

from repro.analysis import ascii_plot, shape_report
from repro.experiments.figures import FIGURES


def _flag_value(args, name, default):
    if name not in args:
        return default
    i = args.index(name)
    if i + 1 >= len(args) or args[i + 1].startswith("--"):
        raise SystemExit(f"{name} requires a value")
    return args[i + 1]


def main() -> None:
    args = [a for a in sys.argv[1:]]
    if "--list" in args or not args:
        for fid, fig in sorted(FIGURES.items()):
            print(f"{fid}: {fig.title}")
        if not args:
            print("\nusage: energy_sweep.py <fig_id> [--full] "
                  "[--workers N] [--store PATH]")
        return

    fig_id = args[0]
    if fig_id not in FIGURES:
        raise SystemExit(f"unknown figure {fig_id!r}; try --list")
    quick = "--full" not in args
    workers = int(_flag_value(args, "--workers", "1"))
    store = _flag_value(args, "--store", None)
    fig = FIGURES[fig_id]
    print(f"{fig.title} — {'quick' if quick else 'paper'} scale")
    result = fig.run(quick=quick, workers=workers, store=store)
    print()
    print(result.format_table(fig.fig_id))
    print(ascii_plot(result.x_values, result.series, y_label=fig.y_name, x_label=fig.x_name))
    print(shape_report(fig.check(result)))
    if fig.notes:
        print(f"\nnote: {fig.notes}")


if __name__ == "__main__":
    main()
