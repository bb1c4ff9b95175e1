"""Network-lifetime extension experiment.

The paper motivates energy awareness with battery-powered nodes but
simulates unlimited energy.  This extension gives every node a finite
battery and measures the lifetime consequences of the metric choice:
time to first node death, death curve, and delivery sustained over the
battery-limited session.  (Lifetime maximization under overhearing is the
subject of the authors' companion work, Deng & Gupta ICDCN'06 — reference
[7] of the paper.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_network, start_workload


@dataclass
class LifetimeResult:
    """Outcome of one battery-limited run."""

    protocol: str
    battery_j: float
    first_death_t: Optional[float]
    deaths: List[float] = field(default_factory=list)  # death times
    delivered: int = 0
    pdr: float = 0.0

    @property
    def alive_at_end(self) -> bool:
        return self.first_death_t is None


def run_lifetime(
    config: ScenarioConfig,
    battery_j: float,
) -> LifetimeResult:
    """Run one scenario with finite per-node batteries.

    Wired exactly like :func:`~repro.experiments.runner.run_scenario`
    (every group, the config's workload and churn).  A node whose
    battery runs dry dies: it stops relaying, receiving and draining its
    neighbours.  Group sources are exempted (a dead source ends its
    session trivially and measures nothing about the tree's energy
    placement).
    """
    if battery_j <= 0:
        raise ValueError("battery capacity must be positive")
    sim, network = build_network(config)
    sources = {network.group_source_of(gid) for gid in network.group_ids}

    deaths: List[float] = []
    for node in network.nodes:
        if node.id in sources:
            continue
        node.battery.capacity_j = battery_j
        node.battery.remaining_j = battery_j
        # record the death, then kill the node as its own callback would
        node.battery._on_depleted = lambda node=node: (
            deaths.append(sim.now),
            node._die(),
        )

    hub, _ = start_workload(config, sim, network)
    sim.run(until=config.sim_time)

    summary = hub.summary(network.total_energy())
    return LifetimeResult(
        protocol=config.protocol,
        battery_j=battery_j,
        first_death_t=min(deaths) if deaths else None,
        deaths=sorted(deaths),
        delivered=summary.data_delivered,
        pdr=summary.pdr,
    )


def _lifetime_execute(payload) -> LifetimeResult:
    """Scheduler worker: one (config, battery) lifetime run.

    Top level (picklable) so ``compare_lifetimes`` can fan out on any
    :class:`~repro.experiments.scheduler.Scheduler`.
    """
    config, battery_j = payload
    return run_lifetime(config, battery_j)


def compare_lifetimes(
    protocols,
    battery_j: float,
    base: Optional[ScenarioConfig] = None,
    seeds=(1, 2),
    scheduler=None,
    workers: int = 1,
) -> Dict[str, List[LifetimeResult]]:
    """Battery-limited comparison across protocols on shared scenarios.

    Runs through the campaign scheduler layer: pass ``workers > 1`` (or
    an explicit ``scheduler``) to fan the protocol × seed grid out in
    parallel; results come back in the same deterministic order either
    way.
    """
    from repro.experiments.scheduler import default_scheduler

    base = base or ScenarioConfig.quick()
    protocols = list(protocols)
    seeds = list(seeds)
    jobs = []
    for p_i, protocol in enumerate(protocols):
        for s_i, seed in enumerate(seeds):
            config = base.replace(protocol=protocol, seed=seed)
            jobs.append((p_i * len(seeds) + s_i, (config, battery_j)))

    results: List[Optional[LifetimeResult]] = [None] * len(jobs)
    engine = scheduler if scheduler is not None else default_scheduler(workers, len(jobs))
    engine.execute(
        _lifetime_execute, jobs, lambda i, res: results.__setitem__(i, res)
    )
    return {
        protocol: results[p_i * len(seeds) : (p_i + 1) * len(seeds)]
        for p_i, protocol in enumerate(protocols)
    }
