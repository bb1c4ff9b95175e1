"""Wireless network substrate: packets, medium, MAC, nodes.

This replaces the ns-2 PHY/MAC/agent plumbing the paper's evaluation ran
on.  The model (see docs/des.md for the substitution argument):

* **Broadcast medium with power control** — a transmission at range ``r``
  reaches every alive node within ``r`` of the sender (wireless multicast
  advantage); the sender pays energy for range ``r``; *every* node in range
  pays reception energy whether or not the packet was meant for it
  (overhearing -> discard energy).
* **Collisions** — receptions overlapping in time at a receiver corrupt
  each other; half-duplex nodes cannot receive while transmitting.
* **CSMA MAC** — senders defer while they can hear an ongoing transmission
  and retry after a random backoff, with a transmit jitter that
  de-synchronizes flooding storms.
* **Optional uniform packet loss** models residual channel error.
"""

from repro.net.packet import Packet, PacketKind, CONTROL_KINDS
from repro.net.medium import WirelessMedium, Transmission
from repro.net.mac import CsmaMac, MacConfig
from repro.net.node import Node, Network, ProtocolAgent
from repro.net.neighbors import NeighborTable, NeighborInfo

__all__ = [
    "Packet",
    "PacketKind",
    "CONTROL_KINDS",
    "WirelessMedium",
    "Transmission",
    "CsmaMac",
    "MacConfig",
    "Node",
    "Network",
    "ProtocolAgent",
    "NeighborTable",
    "NeighborInfo",
]
