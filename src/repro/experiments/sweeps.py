"""Parameter sweeps: the building block of every figure.

A :class:`Sweep` varies one scenario parameter over a list of values for a
set of protocols, averaging each cell over seeds — exactly how the paper
produced its graphs ("We used various scenario files ... and took an
average value to plot the graphs").

Execution goes through the campaign engine
(:mod:`repro.experiments.campaign`): a sweep is a single-axis campaign,
so it inherits parallel workers (``workers=``), the persistent result
store (``store=``) and resumability for free.  The in-process ``cache``
dict keeps its historical role of sharing simulations between sweeps that
extract different metrics from the same runs (Figures 7/8/9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from typing import Union

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import RunResult, run_scenario

#: extractor: result -> float (the figure's Y value), or a metric *name*
#: resolved through the backend's MetricSpec registry (backend-agnostic)
Extractor = Union[Callable[[RunResult], float], str]


def _x_key(x):
    """Normalize an axis value: numeric axes to float, categorical axes
    (e.g. the ``daemon`` discipline) kept as strings."""
    if isinstance(x, str):
        return x
    return float(x)


@dataclass
class SweepResult:
    """A grid of averaged Y values: series per protocol over the X axis.

    The X axis is numeric for the paper's sweeps (velocity, beacon
    interval, group size) and categorical for extension axes like the
    activation ``daemon``.
    """

    x_name: str
    x_values: List  # floats, or strings for categorical axes
    y_name: str
    series: Dict[str, List[float]]  # protocol -> y per x
    raw: Dict[Tuple[str, object], List[RunResult]] = field(default_factory=dict)

    def format_table(self, title: str = "") -> str:
        """Gnuplot-style rows like the paper's figures."""
        lines = []
        if title:
            lines.append(f"# {title}")
        protos = list(self.series)
        header = f"{self.x_name:>12s} " + " ".join(f"{p:>12s}" for p in protos)
        lines.append(header)
        for i, x in enumerate(self.x_values):
            label = f"{x:12.3f}" if not isinstance(x, str) else f"{x:>12s}"
            row = f"{label} " + " ".join(
                f"{self.series[p][i]:12.4f}" for p in protos
            )
            lines.append(row)
        return "\n".join(lines)


@dataclass
class Sweep:
    """Definition of one sweep."""

    x_name: str  # ScenarioConfig field to vary
    x_values: Sequence[float]
    protocols: Sequence[str]
    y_name: str
    extract: Extractor
    base: ScenarioConfig
    seeds: Sequence[int] = (1, 2, 3)

    def run(
        self,
        progress: Optional[Callable[[str], None]] = None,
        cache: Optional[Dict] = None,
        workers: int = 1,
        store=None,
    ) -> SweepResult:
        """Run the grid through the campaign engine.

        ``cache`` maps ScenarioConfig -> RunResult and is shared across
        sweeps: figures that differ only in the metric they extract
        (e.g. Figures 7/8/9) reuse the same simulations.  ``workers``
        runs the grid in parallel; ``store`` — a result-store path or
        instance — additionally persists every run so later invocations
        (or other campaigns sharing cells) skip it.
        """
        # Imported here: campaign imports this module's types for reuse.
        from repro.experiments.campaign import CampaignSpec, run_campaign

        spec = CampaignSpec.from_mapping(
            name=f"sweep-{self.x_name}",
            base=self.base,
            protocols=tuple(self.protocols),
            seeds=tuple(self.seeds),
            grid={self.x_name: tuple(self.x_values)},
        )
        campaign = run_campaign(
            spec,
            workers=workers,
            store=store,
            memo=cache,
            progress=progress,
        )

        extract = self.extract
        if isinstance(extract, str):
            # Metric-name extractors resolve per backend through the
            # typed MetricSpec registry, so sweeps are backend-agnostic.
            from repro.experiments.backends import metric_extractor

            extract = metric_extractor(extract, spec.backends())

        series: Dict[str, List[float]] = {p: [] for p in self.protocols}
        raw: Dict[Tuple[str, object], List[RunResult]] = {}
        by_cell = campaign.by_cell()
        for x in self.x_values:
            for proto in self.protocols:
                results = by_cell[(proto, ((self.x_name, x),))]
                raw[(proto, _x_key(x))] = list(results)
                ys = [extract(r) for r in results]
                finite = [y for y in ys if y == y and y != float("inf")]
                series[proto].append(
                    sum(finite) / len(finite) if finite else float("nan")
                )
        return SweepResult(
            x_name=self.x_name,
            x_values=[_x_key(x) for x in self.x_values],
            y_name=self.y_name,
            series=series,
            raw=raw,
        )
