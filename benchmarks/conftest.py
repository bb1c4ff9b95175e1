"""Shared machinery for the figure benches.

``figure_bench`` runs one figure's quick-scale sweep through the campaign
engine (cached across figures: e.g. Figures 7/8/9 extract different
metrics from the *same* simulations), prints the numeric series and an
ASCII rendering, and asserts the figure's shape checks.

Set ``REPRO_BENCH_SEEDS`` / ``REPRO_BENCH_FULL=1`` to rescale,
``REPRO_BENCH_WORKERS=N`` to run each figure's grid on N worker
processes, and ``REPRO_BENCH_STORE=path`` (a SQLite result-store file)
to persist runs across bench sessions.
"""

from __future__ import annotations

import os
from typing import Dict

import pytest

from repro.analysis import ascii_plot, shape_report
from repro.experiments.figures import FIGURES, FigureDef

#: RunResult cache shared by every bench in the session
_RUN_CACHE: Dict = {}


def _seeds():
    raw = os.environ.get("REPRO_BENCH_SEEDS", "1,2")
    return tuple(int(s) for s in raw.split(","))


def _full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def _workers() -> int:
    return int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def _store():
    return os.environ.get("REPRO_BENCH_STORE") or None


@pytest.fixture(scope="session")
def run_cache() -> Dict:
    return _RUN_CACHE


def figure_bench(benchmark, fig_id: str, run_cache: Dict) -> None:
    """Run, print and shape-check one figure (used by bench_figXX files)."""
    fig: FigureDef = FIGURES[fig_id]
    quick = not _full_scale()
    seeds = _seeds()

    def _run():
        return fig.run(
            quick=quick,
            seeds=seeds,
            cache=run_cache,
            workers=_workers(),
            store=_store(),
        )

    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    checks = fig.check(result)
    print()
    print(result.format_table(f"{fig.fig_id}: {fig.title} (seeds={seeds})"))
    print(ascii_plot(result.x_values, result.series, y_label=fig.y_name, x_label=fig.x_name))
    print(shape_report(checks))
    if fig.notes:
        print(f"  note: {fig.notes}")
    failed = [desc for desc, ok in checks.items() if not ok]
    assert not failed, f"shape checks failed for {fig.fig_id}: {failed}"
