"""Deep-scale stabilization: the array engine at 10^4-10^5 nodes.

The object engine tops out around n = 200 per study (figd02); the
columnar :class:`~repro.core.array_engine.ArrayRoundEngine` over a
:class:`~repro.graph.sparse.SparseTopology` is built to take the daemon
studies to 10^4-10^5.  This bench pins that claim:

* **n = 10^4 cells** — hop and tx under the synchronous daemon (the
  snapshot schedule where batched evaluation shines: one n-node step per
  round), and SS-SPST-E under the distributed daemon with a large k
  (snapshot chunks; the *synchronous* schedule provably limit-cycles for
  E at scale — fixed orders admit cycles, see docs/convergence.md — so a
  sync E cell would measure non-convergence, not speed).  The
  acceptance bar is "stabilizes in seconds": asserted with a generous
  ceiling so shared-runner noise cannot flake it, with the measured
  time recorded in the JSON artifact for trend tracking.
* **speedup cell** — object vs array vs kernel (``REPRO_KERNEL=numba``,
  skipped when numba is absent) on the same n = N tx workload,
  asserting bit-identical trajectories — including evaluation counts —
  (the contract that makes the speedup trustworthy) and recording the
  ratios.
* **snapshot gate** — on the deep E cell, the incremental snapshot
  stage (``profile["snapshot_s"]``) must cost at most a third of
  rebuilding every one of its snapshots in full: ``snapshots x t_full``,
  where ``t_full`` is the median of a few full builds (``_build_full``,
  each into a fresh ``_Snapshot``) on a fresh view of the cell's final
  states.  A full build is O(n) per step; the incremental path
  re-prices per dirty subtree, so the ratio grows with n.  (E's
  *commit* stage is per-move by bit-identity necessity — the dirty
  closure needs per-move flag-flip reports — so it is recorded in the
  profile but not gated; the batched commit's own win shows in the
  hop/tx cells.)  Both sides are timed in the same process, so
  shared-runner noise largely cancels.
* **n = 10^5 cells** (``REPRO_BENCH_FULL=1``) — hop and tx under the
  synchronous daemon: feasibility at a scale where the dense topology
  cannot even be built (an (n, n) float64 matrix would be 80 GB), with
  the per-stage profile asserting commit+snapshot is no longer the
  dominant cost.
* **store-throughput cell** — deep-scale campaigns persist one record
  per run, so the result store must keep up: bulk-ingest rate and
  warm-lookup latency for the JSON record dir vs the SQLite columnar
  store over 10^4 realistic records (scaled down with ``..._N``).

Knobs: ``REPRO_BENCH_DEEPSCALE_N`` rescales the headline cells (CI quick
mode uses 2000), ``REPRO_BENCH_FULL=1`` adds the 10^5 cell, and
``REPRO_BENCH_JSON=dir`` writes ``BENCH_deepscale.json``.
"""

import json
import os
import statistics
import time

from repro.core import engine_for, fresh_states, is_legitimate, metric_by_name
from repro.core import kernels
from repro.core.examples import EXAMPLE_RADIO
from repro.graph import SparseTopology

N = int(os.environ.get("REPRO_BENCH_DEEPSCALE_N", "10000"))
FULL = os.environ.get("REPRO_BENCH_FULL", "") == "1"
FULL_N = 100_000
#: deployment density: side grows with sqrt(n) so mean degree (~20, a
#: dense-enough MANET to be connected w.h.p.) stays n-independent
RADIUS = 80.0
SIDE_PER_SQRT_N = 30.0
#: "stabilizes in seconds", with slack for noisy shared runners (the
#: n = 10^4 tx cell measures ~7 s on a dev box)
MAX_SECONDS = 120.0 if N >= 10_000 else 60.0
#: chain pricing re-prices whole subtrees per move, so SS-SPST-E costs
#: an order of magnitude more than tx (~165 s at n = 10^4 on a dev box)
ENERGY_MAX_SECONDS = 600.0
#: full snapshot builds timed for the snapshot gate's ``t_full``
FULL_BUILD_REPS = 7


def _topo(n: int, seed: int = 2) -> SparseTopology:
    side = SIDE_PER_SQRT_N * (n ** 0.5)
    return SparseTopology.random_geometric(
        n, side=side, radius=RADIUS, seed=seed
    )


def _run(topo, metric_name, daemon, engine, **daemon_options):
    metric = metric_by_name(metric_name, EXAMPLE_RADIO)
    eng = engine_for(
        topo, metric, daemon, incremental=True, engine=engine,
        **daemon_options,
    )
    t0 = time.perf_counter()
    res = eng.run(fresh_states(topo, metric), max_rounds=600)
    elapsed = time.perf_counter() - t0
    return res, elapsed, metric, eng


def _profile_of(eng):
    """The array engine's per-stage counters, rounded for the artifact."""
    prof = getattr(eng, "profile", None)
    if prof is None:
        return None
    return {
        k: (round(v, 4) if isinstance(v, float) else v)
        for k, v in prof.items()
    }


def _cell(topo, metric_name, daemon, **options):
    """One array-engine cell: its artifact record, engine and result."""
    res, elapsed, metric, eng = _run(
        topo, metric_name, daemon, "array", **options
    )
    assert res.converged, f"{metric_name}/{daemon} did not stabilize"
    assert is_legitimate(topo, metric, res.states)
    return {
        "n": topo.n,
        "metric": metric_name,
        "daemon": daemon,
        **options,
        "t": elapsed,
        "rounds": res.rounds,
        "moves": res.moves,
        "evaluations": res.evaluations,
        "profile": _profile_of(eng),
    }, eng, res


def _snapshot_gate(eng, states):
    """The deep E cell's snapshot stage against rebuilding every one of
    its snapshots in full (see module docstring)."""
    prof = eng.profile
    times = []
    for _ in range(FULL_BUILD_REPS):
        view = eng._make_view(states)
        # a running engine maintains flags per move; derive them up
        # front so only the snapshot build itself is timed
        view._flags
        t0 = time.perf_counter()
        eng._build_full(view, "energy")
        times.append(time.perf_counter() - t0)
    t_full = statistics.median(times)
    snapshots = prof["snapshots_full"] + prof["snapshots_incremental"]
    snap = prof["snapshot_s"]
    return {
        "snapshot_s": snap,
        "snapshots": snapshots,
        "t_full": t_full,
        "ratio": snapshots * t_full / snap if snap > 0 else float("inf"),
    }


def _measure():
    topo = _topo(N)
    stats = {
        "n": N,
        "mean_degree": len(topo._nbr) / topo.n,
        "connected": topo.is_connected(),
        "cells": [],
    }
    stats["cells"].append(_cell(topo, "hop", "synchronous")[0])
    stats["cells"].append(_cell(topo, "tx", "synchronous")[0])
    # E under a snapshot schedule that converges: distributed-k chunks
    # (sync E limit-cycles at scale; serial daemons converge but waste
    # the batched evaluator on single-node steps).
    energy, eng, res = _cell(topo, "energy", "distributed", k=max(1, N // 20))
    stats["cells"].append(energy)
    stats["snapshot_gate"] = _snapshot_gate(eng, res.states)

    # Object vs array vs kernel on the headline tx workload: identical
    # trajectories — evaluations included — (the point of the contract);
    # the object/array speedup is recorded not asserted (wall clock on
    # shared runners is noise; bit-identity is the gate).  The kernel
    # run is skipped when numba is absent (the fallback would just
    # re-measure numpy).
    obj, t_obj, _, _ = _run(topo, "tx", "synchronous", "object")
    arr, t_arr, _, _ = _run(topo, "tx", "synchronous", "array")
    for a, b in ((obj, arr),):
        assert a.states == b.states
        assert a.rounds == b.rounds
        assert a.converged == b.converged
        assert a.cost_history == b.cost_history
        assert a.moves == b.moves
        assert a.evaluations == b.evaluations
    speedup = {
        "t_object": t_obj,
        "t_array": t_arr,
        "speedup": t_obj / t_arr if t_arr > 0 else float("inf"),
        "kernel": None,
    }
    if kernels.numba_available():
        before = kernels.active_kernel()
        kernels.set_kernel("numba")
        try:
            ker, t_ker, _, _ = _run(topo, "tx", "synchronous", "array")
        finally:
            kernels.set_kernel(before)
        assert ker.states == arr.states
        assert ker.rounds == arr.rounds
        assert ker.cost_history == arr.cost_history
        assert ker.moves == arr.moves
        assert ker.evaluations == arr.evaluations
        speedup["kernel"] = {
            "t_kernel": t_ker,
            "speedup_vs_object": t_obj / t_ker if t_ker > 0 else float("inf"),
        }
    stats["speedup_tx_sync"] = speedup

    stats["store"] = _store_cell()

    if FULL:
        for m in ("hop", "tx"):
            c = _cell(_topo(FULL_N), m, "synchronous")[0]
            stats["cells"].append(c)
            # the tentpole's acceptance: at 10^5 the commit+snapshot
            # stages (the PR-6 bottleneck) are no longer dominant
            prof = c["profile"]
            assert (
                prof["commit_s"] + prof["snapshot_s"]
                <= prof["evaluate_s"] + prof["fold_s"]
            ), f"commit+snapshot dominates at n={FULL_N}: {prof}"
    return stats


def _store_cell():
    """Result-store throughput: ingest + warm lookup, JSON dir vs SQLite.

    The records are realistic (one real rounds run templated across
    seeds, keyed by the genuine config hash), and both stores ingest
    through their bulk path (``put_many``), which is what ``migrate``
    and a deep-scale campaign's write stream exercise.
    """
    import tempfile

    from repro.experiments.campaign import _execute
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.store import JsonDirStore, SqliteStore, config_key

    base = ScenarioConfig.quick(
        backend="rounds", n_nodes=16, group_size=4, protocol="ss-spst"
    )
    template = _execute(base)
    records = min(10_000, max(1000, N))
    items = []
    for i in range(records):
        cfg = base.replace(seed=i + 1)
        record = dict(template, config=dict(template["config"], seed=i + 1))
        items.append((config_key(cfg), record))
    sample = items[:: max(1, records // 500)]

    out = {"records": records}
    with tempfile.TemporaryDirectory() as tmp:
        backends = (
            ("json", lambda: JsonDirStore(os.path.join(tmp, "records"))),
            (
                "sqlite",
                lambda: SqliteStore(
                    os.path.join(tmp, "records.sqlite"), batch_size=256
                ),
            ),
        )
        for label, open_backend in backends:
            store = open_backend()
            t0 = time.perf_counter()
            store.put_many(items)
            store.flush()
            ingest_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            for key, _ in sample:
                assert store.get(key) is not None
            lookup_s = (time.perf_counter() - t0) / len(sample)
            store.close()
            out[label] = {
                "ingest_s": ingest_s,
                "ingest_per_s": (
                    records / ingest_s if ingest_s > 0 else float("inf")
                ),
                "lookup_us": lookup_s * 1e6,
            }
    return out


def _emit_json(stats) -> None:
    out_dir = os.environ.get("REPRO_BENCH_JSON")
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_deepscale.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
    print(f"  wrote {path}")


def test_deepscale(benchmark):
    stats = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print()
    for c in stats["cells"]:
        prof = c.get("profile") or {}
        stages = " ".join(
            f"{k.rstrip('_s')}={prof[k]:.2f}"
            for k in ("commit_s", "snapshot_s", "evaluate_s", "fold_s")
            if k in prof
        )
        print(
            f"n={c['n']:>6d} {c['metric']:7s} {c['daemon']:12s}"
            f" {c['t']:7.2f}s rounds={c['rounds']:4d} moves={c['moves']}"
            f"  [{stages}]"
        )
    sp = stats["speedup_tx_sync"]
    print(
        f"object vs array (n={N} tx sync): {sp['t_object']:.2f}s vs "
        f"{sp['t_array']:.2f}s -> {sp['speedup']:.1f}x"
        + (
            f"; numba {sp['kernel']['t_kernel']:.2f}s "
            f"({sp['kernel']['speedup_vs_object']:.1f}x)"
            if sp["kernel"]
            else "; numba absent"
        )
    )
    gate = stats["snapshot_gate"]
    print(
        f"snapshot gate (deep E): {gate['snapshots']} full rebuilds x "
        f"{gate['t_full'] * 1e3:.2f}ms vs incremental "
        f"{gate['snapshot_s']:.2f}s -> {gate['ratio']:.1f}x"
    )
    st = stats["store"]
    for label in ("json", "sqlite"):
        cell = st[label]
        print(
            f"store[{label}]: {st['records']} records, "
            f"ingest {cell['ingest_per_s']:.0f}/s, "
            f"warm lookup {cell['lookup_us']:.0f}us"
        )
    _emit_json(stats)
    # The headline acceptance: deep-scale stabilization in seconds.
    for c in stats["cells"]:
        if c["n"] != N:
            continue
        bound = ENERGY_MAX_SECONDS if c["metric"] == "energy" else MAX_SECONDS
        assert c["t"] <= bound, (
            f"{c['metric']}/{c['daemon']} took {c['t']:.1f}s at n={N}"
        )
    # The incremental snapshot stage must beat rebuilding every snapshot
    # in full >= 3x (full builds are O(n) per step, incremental
    # re-pricing is O(dirty subtree) — the ratio grows with n, ~8x at
    # the CI quick scale N = 2000).
    assert gate["snapshot_s"] * 3 <= gate["snapshots"] * gate["t_full"], gate
