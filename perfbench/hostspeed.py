"""How fast the host is right now, to scale measured times by.

A shared host's speed drifts: the same pass has been measured taking 8 s and
then 13 s some minutes later, far more than any bound worth having.  So
``run.py`` times a fixed piece of reference work before and after every
pass, and reports each pass's seconds scaled by the reference's nominal time
over its time around the pass, that is in seconds of a host on which the
reference takes its nominal time.

The slowdowns hit code unevenly, so a workload is scaled by the reference
that moves with its own kind of work: ``objects`` (attribute, list and heap
traffic over many small objects, like the event simulation and the campaign
layers) or ``arrays`` (dict and heap traffic plus numpy gathers, sorts and
bincounts over 32 MB, like the columnar round engine).  The reference runs
in the parent process, so it never touches a pass's heap, garbage collector
or peak memory, and it uses nothing from ``src/``.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: seconds each reference takes on the host the baseline was measured on
NOMINAL_S = {"objects": 0.37, "arrays": 0.28}


def reference_s(kind: str) -> float:
    """Seconds the ``kind`` reference takes now."""
    work = {"objects": _objects_work, "arrays": _arrays_work}[kind]
    gc.disable()
    try:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0
    finally:
        gc.enable()


class _Node:
    def __init__(self, i: int) -> None:
        self.i = i
        self.t = 0.0
        self.busy = 0.0
        self.peers: list = []


def _objects_work() -> None:
    rng = np.random.default_rng(7)
    nodes = [_Node(i) for i in range(50_000)]
    for node, j in zip(nodes, rng.integers(0, 50_000, size=50_000).tolist()):
        node.peers.append(nodes[j])
    pos = rng.uniform(0.0, 750.0, size=(50, 2))
    heap: list = []
    for seq, k in enumerate(rng.integers(0, 50_000, size=100_000).tolist()):
        node = nodes[k]
        node.t += 1.0
        peer = node.peers[0]
        peer.busy = max(peer.busy, node.t)
        heapq.heappush(heap, (node.t, seq, node))
        if len(heap) > 500:
            heapq.heappop(heap)
        if seq % 32 == 0:
            d = np.hypot(pos[:, 0] - pos[seq % 50, 0], pos[:, 1] - pos[seq % 50, 1])
            peer.t += float(d.min())
    big = rng.random(1_000_000)
    idx = rng.integers(0, 1_000_000, size=1_000_000)
    for _ in range(2):
        np.bincount(idx % 1000, weights=big[idx])
        np.sort(big)


def _arrays_work() -> None:
    rng = np.random.default_rng(12345)
    table = {i: (i, float(i)) for i in range(200_000)}
    heap: list = []
    for i, k in enumerate(rng.integers(0, 200_000, size=60_000).tolist()):
        heapq.heappush(heap, (table[k][1], i))
        if len(heap) > 64:
            heapq.heappop(heap)
    big = rng.random(4_000_000)
    idx = rng.integers(0, 4_000_000, size=1_000_000)
    for _ in range(3):
        np.bincount(idx % 1000, weights=big[idx])
        np.sort(big[:1_000_000])
