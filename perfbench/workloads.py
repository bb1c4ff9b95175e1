"""One timed pass of one benchmark workload, in a process of its own.

``run.py`` starts this file once per pass::

    python3 perfbench/workloads.py --workload des-flood --seed 3 \\
        --trace 0 --pass-index 0 --spawned-at <perf_counter of the parent>

and reads the JSON object it prints as its last line: set-up and timed
seconds, peak memory, one checked output per operation (a DES run, a
rounds cell or a campaign phase) and, with ``--trace 1``, the per-layer
metrics.  Inputs come from ``--seed`` only; ``--tiny`` shrinks every
workload to a size the benchmark's own tests can run in seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"

#: the driver's seed is folded into this range before deriving inputs
SEED_RANGE = 1_000_000

#: DES panels: protocol -> (scenario runs per pass, simulated seconds)
DES_PANELS = {"ss-spst-e": (4, 60.0), "flooding": (4, 25.0)}

#: rounds-deep: bench_deepscale's geometry (side = 30 * sqrt(n), radius 80)
SIDE_PER_SQRT_N = 30.0
RADIUS = 80.0
MAX_ROUNDS = 600

#: campaign-store cold half: figd02's grid at n = 50 without the
#: synchronous daemon, whose SS-SPST-E limit cycles make a run's cost swing
#: 30x from seed to seed; six seeds, so 60 runs
COLD_DAEMONS = (
    "central", "randomized", "distributed", "adversarial-max-cost",
    "weakly-fair",
)
COLD_SEEDS = 6
COLD_METRICS = ("rounds", "evaluations", "moves")
#: records bulk-ingested, then served warm
WARM_RECORDS = 5000


class Pass:
    """What one pass measured and checked."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.first_timed: Optional[float] = None
        #: span index ranges and counter increments of the timed calls
        self.windows: List[tuple] = []
        self.counted: Dict[str, int] = {}
        self.timed_s = 0.0
        self.phase_s: Dict[str, float] = {}
        self.units: List[dict] = []
        self.facts: Dict[str, float] = {}
        self.rates: Dict[str, float] = {}

    @contextlib.contextmanager
    def timed(self, phase: str = "run"):
        """Time one call into the program; the first ends set-up."""
        tracer = self.tracer
        if tracer is not None:
            first_span, counts = len(tracer.start), dict(tracer.counts)
        t0 = time.perf_counter()
        if self.first_timed is None:
            self.first_timed = t0
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.timed_s += dt
            self.phase_s[phase] = self.phase_s.get(phase, 0.0) + dt
            if tracer is not None:
                self.windows.append((first_span, len(tracer.start)))
                for name, value in tracer.counts.items():
                    self.counted[name] = (
                        self.counted.get(name, 0) + value - counts.get(name, 0)
                    )

    def unit(self, key: str, output: dict, failures: List[str]) -> None:
        """Record one checked operation and its output."""
        self.units.append({"key": key, "output": output, "failures": failures})

    def add(self, fact: str, value: float) -> None:
        self.facts[fact] = self.facts.get(fact, 0) + value


def compare_pinned(key: str, output: dict, pinned: dict) -> List[str]:
    """Failures where ``output`` differs from the value pinned for ``key``."""
    expected = pinned.get(key)
    if expected is None:
        return []
    out = []
    for name, want in expected.items():
        got = output.get(name)
        same = got == want or (
            isinstance(got, float)
            and isinstance(want, float)
            and math.isnan(got)
            and math.isnan(want)
        )
        if not same:
            out.append(f"{key}: {name} = {got!r}, pinned {want!r}")
    return out


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


# ----------------------------------------------------------------------
# DES workloads
# ----------------------------------------------------------------------
def des_configs(protocol: str, seed: int, tiny: bool):
    from repro.experiments.config import ScenarioConfig

    base = seed % SEED_RANGE
    if tiny:
        return [
            ScenarioConfig.quick(
                protocol=protocol, seed=base + 1, n_nodes=16, group_size=4,
                sim_time=12.0,
            )
        ]
    runs, sim_time = DES_PANELS[protocol]
    return [
        ScenarioConfig.quick(
            protocol=protocol, seed=runs * base + j + 1, sim_time=sim_time
        )
        for j in range(runs)
    ]


def des_key(cfg) -> str:
    return (
        f"{cfg.protocol}:seed={cfg.seed}:n={cfg.n_nodes}:sim_time={cfg.sim_time:g}"
    )


def des_output(result) -> dict:
    """The pinned outputs of one DES run."""
    return {
        **result.summary.as_dict(),
        "frames_sent": result.frames_sent,
        "frames_collided": result.frames_collided,
        "parent_changes": result.parent_changes,
    }


def des_invariants(result, network) -> List[str]:
    """Checks that hold on any seed (no pinned values needed)."""
    stats = network.medium.stats
    out = []
    if stats.receptions_total != stats.frames_delivered + stats.frames_collided:
        out.append(
            f"receptions_total {stats.receptions_total} != delivered "
            f"{stats.frames_delivered} + collided {stats.frames_collided}"
        )
    mac_sent = sum(node.mac.frames_sent for node in network.nodes)
    if mac_sent != stats.frames_sent:
        out.append(f"MAC frames_sent {mac_sent} != medium frames_sent {stats.frames_sent}")
    if not 0.0 <= result.summary.pdr <= 1.0:
        out.append(f"pdr {result.summary.pdr!r} outside [0, 1]")
    return out


def _check_des(p: Pass, cfg, result, network, pinned: dict) -> None:
    key = des_key(cfg)
    output = des_output(result)
    p.unit(
        key, output,
        des_invariants(result, network) + compare_pinned(key, output, pinned),
    )
    stats = network.medium.stats
    macs = [node.mac for node in network.nodes]
    p.add("sim.events", result.events_executed)
    p.add("net.medium.receptions", stats.receptions_total)
    p.add("net.medium.collided", stats.frames_collided)
    p.add("net.medium.delivered", stats.frames_delivered)
    p.add("net.mac.sent", sum(m.frames_sent for m in macs))
    p.add("net.mac.dropped", sum(m.frames_dropped for m in macs))
    p.add("protocols.parent_changes", result.parent_changes)


def des_pass(p: Pass, protocol: str, seed: int, tiny: bool, pinned: dict) -> None:
    from repro.experiments import runner

    configs = des_configs(protocol, seed, tiny)
    networks = []
    build = runner.build_network

    def capture(config):
        sim, network = build(config)
        networks.append(network)
        return sim, network

    runner.build_network = capture
    try:
        for cfg in configs:
            with p.timed():
                result = runner.run_scenario(cfg)
            network = networks.pop()
            _check_des(p, cfg, result, network, pinned)
            del result, network  # each run's peak memory is its own
    finally:
        runner.build_network = build
    sim_s = sum(cfg.sim_time for cfg in configs)
    p.rates["sim_rate"] = sim_s / p.timed_s


# ----------------------------------------------------------------------
# rounds-deep
# ----------------------------------------------------------------------
def rounds_cells(tiny: bool):
    """``(cell, n, metric, daemon, daemon options, relabeled)``.

    Every cell runs on bench_deepscale's deployment (geometry seed 2).  The
    hop and tx cells relabel its nodes by a permutation drawn from the
    driver's seed (seed 0 keeps the original ids): the same deployment and
    depth under new ids, tie-breaks and memory order.  The energy cell keeps
    the original ids at every seed, because the distributed daemon's draws
    follow the ids and switch the scalar fallback, and with it half the
    cell's cost, on or off from one labeling to the next.
    """
    big, small = (400, 200) if tiny else (10_000, 2000)
    return [
        ("hop", big, "hop", "synchronous", {}, True),
        ("tx", big, "tx", "synchronous", {}, True),
        ("energy", small, "energy", "distributed", {"k": small // 20}, False),
    ]


def relabel(topo, perm):
    """``topo`` with node ``v`` renamed ``perm[v]``."""
    import numpy as np

    indptr, nbr, dist = topo.csr_arrays()
    rows = perm[np.repeat(np.arange(topo.n), np.diff(indptr))]
    cols = perm[nbr]
    order = np.lexsort((cols, rows))
    new_indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=topo.n))))
    return type(topo)(
        topo.n, new_indptr, cols[order], dist[order], int(perm[topo.source]),
        [int(perm[m]) for m in topo.members],
    )


def rounds_output(res) -> dict:
    return {
        "rounds": res.rounds,
        "moves": res.moves,
        "evaluations": res.evaluations,
        "converged": bool(res.converged),
        "cost_history_sha256": _digest([float(c) for c in res.cost_history]),
    }


def rounds_pass(
    p: Pass, seed: int, tiny: bool, pinned: dict, full_check: bool
) -> None:
    from repro.core import engine_for, fresh_states, is_legitimate, metric_by_name
    from repro.core.examples import EXAMPLE_RADIO
    from repro.graph import SparseTopology

    import numpy as np

    labeling = seed % SEED_RANGE
    topos = {}
    cells = []
    for cell, n, metric_name, daemon, options, relabeled in rounds_cells(tiny):
        if n not in topos:
            topos[n] = SparseTopology.random_geometric(
                n, side=SIDE_PER_SQRT_N * n ** 0.5, radius=RADIUS, seed=2
            )
        topo = topos[n]
        label = labeling if relabeled else 0
        if label:
            topo = relabel(topo, np.random.default_rng(label).permutation(n))
        metric = metric_by_name(metric_name, EXAMPLE_RADIO)
        engine = engine_for(
            topo, metric, daemon, incremental=True, engine="array", **options
        )
        states = fresh_states(topo, metric)
        cells.append((cell, label, topo, metric, engine, states))
    for cell, label, topo, metric, engine, states in cells:
        with p.timed(cell):
            res = engine.run(states, max_rounds=MAX_ROUNDS)
        key = f"rounds:{cell}:n={topo.n}:labeling={label}"
        output = rounds_output(res)
        failures = compare_pinned(key, output, pinned)
        if not res.converged:
            failures.append(f"{key}: did not converge in {MAX_ROUNDS} rounds")
        elif full_check and not is_legitimate(topo, metric, res.states):
            failures.append(f"{key}: converged to an illegitimate state")
        p.unit(key, output, failures)
        for stage, value in engine.profile.items():
            p.add(f"array.{cell}.{stage}", value)
        p.add(f"rounds.{cell}.rounds", res.rounds)
        p.add(f"rounds.{cell}.moves", res.moves)
        p.add(f"rounds.{cell}.evaluations", res.evaluations)


# ----------------------------------------------------------------------
# campaign-store
# ----------------------------------------------------------------------
def campaign_specs(seed: int, tiny: bool):
    """The cold spec, the warm spec and the warm half's template config."""
    from repro.experiments.campaign import CampaignSpec
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.figures import FIGURES

    base = seed % SEED_RANGE
    cold_seeds = [COLD_SEEDS * base + j + 1 for j in range(1 if tiny else COLD_SEEDS)]
    figd02 = FIGURES["figd02"]
    if tiny:
        cold_base = figd02.base_quick.replace(group_size=4)
        grid = {"n_nodes": (16,), "daemon": ("central", "distributed")}
    else:
        cold_base = figd02.base_quick
        grid = {"n_nodes": (50,), "daemon": COLD_DAEMONS}
    cold = CampaignSpec.from_mapping(
        "perfbench-cold", cold_base, figd02.protocols, cold_seeds, grid
    )
    records = 200 if tiny else WARM_RECORDS
    first = 10_000_000 + base * records
    template = ScenarioConfig.quick(
        backend="rounds", n_nodes=16, group_size=4, protocol="ss-spst",
        seed=first,
    )
    warm = CampaignSpec.from_mapping(
        "perfbench-warm", template, ("ss-spst",), range(first, first + records)
    )
    return cold, warm, template


def campaign_pass(p: Pass, seed: int, tiny: bool, pinned: dict) -> None:
    import scipy.stats  # noqa: F401  (the aggregate tables' lazy import)

    from repro.experiments import store as store_mod
    from repro.experiments.backends import backend_by_name
    from repro.experiments.scheduler import SerialScheduler
    from repro.experiments.service import CampaignService

    cold_spec, warm_spec, template_cfg = campaign_specs(seed, tiny)
    backend = backend_by_name("rounds")
    template = backend.record_from(backend.run(template_cfg))
    # Input generation stays out of the trace: key with the unwrapped hash.
    key_of = getattr(store_mod.config_key, "__wrapped__", store_mod.config_key)
    items = []
    for cfg in warm_spec.configs():
        record = dict(template, config=dict(template["config"], seed=cfg.seed))
        items.append((key_of(cfg), record))

    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR)
    try:
        with CampaignService(
            os.path.join(tmp, "runs.sqlite"), SerialScheduler()
        ) as svc:
            with p.timed("cold"):
                cold = svc.submit(cold_spec)
            with p.timed("ingest"):
                svc.store.put_many(items)
                svc.store.flush()
            with p.timed("warm"):
                warm = svc.submit(warm_spec)
            _check_campaign(p, svc, cold_spec, warm_spec, cold, warm, template, pinned)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    p.add("store.hits", cold.cache_hits + warm.cache_hits)
    p.rates["runs_per_s"] = cold.executed / p.phase_s["cold"]
    p.rates["ingest_per_s"] = len(items) / p.phase_s["ingest"]
    p.rates["warm_runs_per_s"] = warm.cache_hits / p.phase_s["warm"]


def _check_campaign(p, svc, cold_spec, warm_spec, cold, warm, template, pinned):
    seeds = ",".join(str(s) for s in cold_spec.seeds)
    key = f"campaign:cold:size={cold_spec.size()}:seeds={seeds}"
    table = cold.format_table(COLD_METRICS)
    reread = svc.results(cold_spec)
    output = {
        "executed": cold.executed,
        "table_sha256": hashlib.sha256(table.encode()).hexdigest(),
    }
    failures = compare_pinned(key, output, pinned)
    if cold.executed != cold_spec.size() or cold.cache_hits:
        failures.append(
            f"{key}: executed {cold.executed} and hit {cold.cache_hits} of "
            f"{cold_spec.size()} runs in a fresh store"
        )
    if reread.cache_hits != cold_spec.size() or reread.format_table(COLD_METRICS) != table:
        failures.append(f"{key}: aggregate table read warm differs from the cold one")
    p.unit(key, output, failures)

    records = warm_spec.size()
    key = f"campaign:ingest:records={records}"
    stored = svc.store.run_count()
    failures = []
    if stored != records + cold_spec.size():
        failures.append(f"{key}: store holds {stored} records after the ingest")
    p.unit(key, {"stored": stored}, failures)

    key = f"campaign:warm:records={records}"
    rounds = warm.aggregate(warm.extractor("rounds"))
    means = sorted({ci.mean for ci in rounds.values()})
    output = {"executed": warm.executed, "hits": warm.cache_hits, "rounds_mean": means}
    failures = []
    if warm.executed or warm.cache_hits != records:
        failures.append(
            f"{key}: executed {warm.executed}, hit {warm.cache_hits} of {records}"
        )
    if means != [float(template["summary"]["rounds"])]:
        failures.append(f"{key}: mean rounds {means} != the template's")
    p.unit(key, output, failures)


# ----------------------------------------------------------------------
def run_workload(
    p: Pass, workload: str, seed: int, tiny: bool, pinned: dict,
    full_check: bool = True,
) -> None:
    if workload == "des-spst-e":
        des_pass(p, "ss-spst-e", seed, tiny, pinned)
    elif workload == "des-flood":
        des_pass(p, "flooding", seed, tiny, pinned)
    elif workload == "rounds-deep":
        rounds_pass(p, seed, tiny, pinned, full_check)
    elif workload == "campaign-store":
        campaign_pass(p, seed, tiny, pinned)
    else:
        raise ValueError(f"unknown workload {workload!r}")


def layer_metrics(p: Pass) -> Dict[str, float]:
    """The per-layer metrics of a traced pass (rates are filled by run.py)."""
    from schema import PER_LAYER, ROUND_CELLS

    layers = {name: 0.0 for name in PER_LAYER}
    tracer = p.tracer
    for window in p.windows:
        for span, (calls, self_s, total_s) in tracer.span_totals(*window).items():
            prefix = "sim.self" if span == "sim.run" else span
            if f"{span}_calls" in layers:
                layers[f"{span}_calls"] += calls
            if f"{prefix}_s" in layers:
                # the replay is reported whole, its positions calls included
                inclusive = span == "mobility.profile"
                layers[f"{prefix}_s"] += total_s if inclusive else self_s
    # graph construction is set-up work: counted from process start
    build = tracer.span_totals().get("graph.sparse.build", (0, 0.0, 0.0))
    layers["graph.sparse.build_s"] = build[2]
    layers["sim.schedule_calls"] = p.counted.get("sim.schedule", 0)
    loads = layers["store.load_calls"]
    if loads:
        layers["store.hit_frac"] = p.facts["store.hits"] / loads
    for name, value in p.facts.items():
        if name in layers:
            layers[name] = value
    receptions = p.facts.get("net.medium.receptions", 0)
    if receptions:
        layers["net.medium.delivered_frac"] = p.facts["net.medium.delivered"] / receptions
    attempts = p.facts.get("net.mac.sent", 0) + p.facts.get("net.mac.dropped", 0)
    if attempts:
        layers["net.mac.sent_frac"] = p.facts["net.mac.sent"] / attempts
    for cell in ROUND_CELLS:
        evaluations = layers[f"rounds.{cell}.evaluations"]
        if evaluations:
            layers[f"rounds.{cell}.move_frac"] = layers[f"rounds.{cell}.moves"] / evaluations
    return layers


def peak_rss_mb() -> float:
    """This process's peak resident memory.  Read from ``VmHWM``, which
    starts afresh at ``exec``; ``ru_maxrss`` would also count the parent's
    memory at the time it started this process."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = time.perf_counter() if args.spawned_at is None else args.spawned_at

    # the numpy kernels are the measured ones (numba is optional and absent)
    os.environ["REPRO_KERNEL"] = "numpy"
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import kernels

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    pinned = json.loads(PINNED_PATH.read_text())
    p = Pass(tracer)
    run_workload(
        p, args.workload, args.seed, args.tiny, pinned,
        full_check=args.pass_index == 0,
    )
    result = {
        "setup_s": p.first_timed - spawned_at,
        "wall_s": p.timed_s,
        "phase_s": p.phase_s,
        "peak_rss_mb": peak_rss_mb(),
        "kernel": kernels.active_kernel(),
        "units": p.units,
        "facts": p.facts,
        "rates": p.rates,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(p)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(str(OUT_DIR / f"spans-{args.workload}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
