"""Span tracing from outside the program.

The traced pass wraps public functions of each ``src/repro`` layer at the
place they are looked up (a class attribute, or a module global where a
name was bound by ``from ... import``).  Each call records one span —
name, start, end and the span that was open when it began — in flat
in-memory arrays, written out once at the end of the pass.  Nothing inside
``src/`` is instrumented.

A span's *self time* is its duration minus the time covered by its child
spans (code here is single-threaded, so children never overlap).  Every
``*_s`` per-layer metric is a self time, so layer times do not double
count.  Work done in functions that are not wrapped lands in the self time
of the nearest wrapped caller: reception completion runs through the
medium's private ``_complete_reception`` callback straight from the event
loop, so its own cost (not that of the delivery, energy and metrics spans
it calls) counts in ``sim.self_s``.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


class Tracer:
    """In-memory span recorder plus call counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Dict[str, int] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record one span per call."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            stack.append(idx)
            end.append(0.0)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapped

    def counter(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count its calls (no span)."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # ------------------------------------------------------------------
    def span_totals(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, self seconds, inclusive seconds)}`` over the
        spans recorded at indices ``start:stop``, a range that must hold no
        span open at either end (a span's children are recorded after it)."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[start:stop]
        parent = np.frombuffer(self.parent, dtype=np.int32)[start:stop] - start
        dur = (
            np.frombuffer(self.end, dtype=np.float64)
            - np.frombuffer(self.start, dtype=np.float64)
        )[start:stop]
        nested = parent >= 0
        child = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        own = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        total_s = np.bincount(names, weights=dur, minlength=k)
        return {
            name: (int(calls[i]), float(self_s[i]), float(total_s[i]))
            for i, name in enumerate(self.names)
        }

    def dump(self, path: str) -> None:
        """Write every span (name, start, end, parent) to ``path`` (.npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


#: traced names that count calls instead of recording spans
COUNTED = {"sim.schedule"}


def _hook_targets():
    """``(owner, attribute, name)`` for every traced function."""
    from repro.core import metrics as core_metrics
    from repro.core.rounds import RoundEngine
    from repro.energy.ledger import EnergyLedger
    from repro.experiments import campaign, runner, store
    from repro.experiments.aggregation import StreamingAggregate
    from repro.experiments.backends import DesBackend, RoundsBackend
    from repro.experiments.scheduler import SerialScheduler
    from repro.graph.sparse import SparseTopology
    from repro.groups.agents import GroupDispatchAgent
    from repro.metrics.hub import MetricsHub
    from repro.mobility.base import MobilityModel
    from repro.net.mac import CsmaMac
    from repro.net.medium import WirelessMedium
    from repro.net.node import Network, Node
    from repro.protocols import ss_spst
    from repro.protocols.flooding import FloodingAgent
    from repro.protocols.maodv import MaodvAgent
    from repro.protocols.odmrp import OdmrpAgent
    from repro.sim.kernel import Simulator

    targets = [
        (Simulator, "run", "sim.run"),
        (Simulator, "schedule_at", "sim.schedule"),
        (WirelessMedium, "broadcast", "net.medium.broadcast"),
        (WirelessMedium, "carrier_busy", "net.medium.carrier_busy"),
        (CsmaMac, "send", "net.mac.send"),
        (Node, "deliver", "net.node.deliver"),
        (Network, "positions", "net.node.positions"),
        (MobilityModel, "positions", "mobility.positions"),
        (runner, "mobility_profile", "mobility.profile"),
        # bound into ss_spst by ``from repro.core.rules import ...``
        (ss_spst, "compute_update_local", "protocols.rule"),
        (EnergyLedger, "charge", "energy.charge"),
        (RoundEngine, "run", "core.rounds.run"),
        (SparseTopology, "random_geometric", "graph.sparse.build"),
        (DesBackend, "run", "backends.run"),
        (RoundsBackend, "run", "backends.run"),
        (SerialScheduler, "execute", "scheduler.execute"),
        (store.SqliteStore, "put", "store.put"),
        (store.SqliteStore, "put_many", "store.put_many"),
        (store.SqliteStore, "flush", "store.flush"),
        (store.SqliteStore, "load", "store.load"),
        # looked up as a module global from inside ResultStore.load/store
        (store, "config_key", "store.config_key"),
        # bound into campaign by ``from repro.experiments.store import ...``
        (campaign, "result_from_record", "store.decode"),
        (StreamingAggregate, "update", "aggregation.update"),
    ]
    for agent in (
        ss_spst.SSSPSTAgent, FloodingAgent, MaodvAgent, OdmrpAgent,
        GroupDispatchAgent,
    ):
        targets.append((agent, "handle_packet", "protocols.handle_packet"))
    for value in vars(core_metrics).values():
        if (
            isinstance(value, type)
            and issubclass(value, core_metrics.CostMetric)
            and "join_cost" in vars(value)
            and not getattr(vars(value)["join_cost"], "__isabstractmethod__", False)
        ):
            targets.append((value, "join_cost", "core.metrics.join_cost"))
    for hook in ("on_frame_sent", "on_data_originated", "on_data_delivered"):
        targets.append((MetricsHub, hook, "metrics.hub"))
    return targets


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced function; returns a function that undoes it."""
    undo = []
    for owner, attr, name in _hook_targets():
        inherited = attr not in vars(owner)
        original = getattr(owner, attr) if inherited else vars(owner)[attr]
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        wrapped = (tracer.counter if name in COUNTED else tracer.span)(name, fn)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        undo.append((owner, attr, None if inherited else original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    return uninstall
