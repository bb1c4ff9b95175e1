"""Discrete-event simulation kernel.

This subpackage replaces the ns-2 core the paper ran on: a deterministic
event heap (:mod:`repro.sim.events`), a simulation environment with
scheduling and run control (:mod:`repro.sim.kernel`) and
self-rescheduling timers (:mod:`repro.sim.timers`).

The kernel is intentionally minimal and allocation-light: the heap holds
``(time, priority, seq, event)`` tuples, ties are broken FIFO by the
sequence counter, and cancellation is O(1) lazy (cancelled events are
skipped when popped).  ``docs/des.md`` states the ordering contract.
"""

from repro.sim.events import Event
from repro.sim.kernel import Simulator, SimulationError
from repro.sim.timers import PeriodicTimer

__all__ = [
    "Event",
    "Simulator",
    "SimulationError",
    "PeriodicTimer",
]
