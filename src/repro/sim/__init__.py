"""Discrete-event simulation kernel.

This subpackage replaces the ns-2 core the paper ran on: a deterministic
event heap (:mod:`repro.sim.events`), a simulation environment with
scheduling and run control (:mod:`repro.sim.kernel`) and
self-rescheduling timers (:mod:`repro.sim.timers`).

The kernel is intentionally minimal and allocation-light: events are
``__slots__`` objects, ties are broken FIFO by a sequence counter, and
cancellation is O(1) lazy (cancelled events are skipped when popped).
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
