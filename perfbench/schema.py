"""The benchmark's metric names and units (``BENCHMARK.json`` lists the same).

These names are the interface later changes are judged against: keep them
stable.  ``README.md`` in this directory defines each one.
"""

WORKLOADS = ("des-spst-e", "des-flood", "rounds-deep", "campaign-store")

#: reported by every untraced run (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

ROUND_CELLS = ("hop", "tx", "energy")

_ARRAY_STAGES = (
    ("evaluate_s", "s"),
    ("fold_s", "s"),
    ("commit_s", "s"),
    ("snapshot_s", "s"),
    ("scalar_s", "s"),
    ("batch_steps", "count"),
    ("scalar_steps", "count"),
    ("snapshots_incremental", "count"),
)
_ROUND_COUNTS = (
    ("rounds", "count"),
    ("moves", "count"),
    ("evaluations", "count"),
    ("move_frac", "ratio"),
)

#: reported by every traced run (``--trace 1``): name -> unit.  A layer
#: that a workload never reaches reads 0.
PER_LAYER = {
    # end-to-end rates of the traced run's untraced pass
    "sim_rate": "s/s",
    "runs_per_s": "1/s",
    "ingest_per_s": "1/s",
    "warm_runs_per_s": "1/s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.schedule_calls": "count",
    "sim.self_s": "s",
    "net.medium.broadcast_calls": "count",
    "net.medium.broadcast_s": "s",
    "net.medium.carrier_busy_calls": "count",
    "net.medium.carrier_busy_s": "s",
    "net.medium.receptions": "count",
    "net.medium.collided": "count",
    "net.medium.delivered_frac": "ratio",
    "net.mac.send_calls": "count",
    "net.mac.sent": "count",
    "net.mac.dropped": "count",
    "net.mac.sent_frac": "ratio",
    "net.node.deliver_calls": "count",
    "net.node.deliver_s": "s",
    "net.node.positions_calls": "count",
    "net.node.positions_s": "s",
    "mobility.positions_calls": "count",
    "mobility.positions_s": "s",
    "mobility.profile_s": "s",
    "protocols.handle_packet_calls": "count",
    "protocols.handle_packet_s": "s",
    "protocols.rule_calls": "count",
    "protocols.rule_s": "s",
    "protocols.parent_changes": "count",
    "core.metrics.join_cost_calls": "count",
    "core.metrics.join_cost_s": "s",
    "energy.charge_calls": "count",
    "energy.charge_s": "s",
    "metrics.hub_calls": "count",
    "metrics.hub_s": "s",
    **{
        f"array.{cell}.{stage}": unit
        for cell in ROUND_CELLS
        for stage, unit in _ARRAY_STAGES
    },
    **{
        f"rounds.{cell}.{count}": unit
        for cell in ROUND_CELLS
        for count, unit in _ROUND_COUNTS
    },
    "core.rounds.run_s": "s",
    "graph.sparse.build_s": "s",
    "backends.run_calls": "count",
    "backends.run_s": "s",
    "scheduler.execute_s": "s",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.put_many_s": "s",
    "store.flush_s": "s",
    "store.load_calls": "count",
    "store.load_s": "s",
    "store.config_key_calls": "count",
    "store.config_key_s": "s",
    "store.decode_s": "s",
    "store.hit_frac": "ratio",
    "aggregation.update_calls": "count",
    "aggregation.update_s": "s",
    "trace.overhead_frac": "ratio",
    "host.reference_s": "s",
}
