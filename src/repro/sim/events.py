"""Event handles for the simulation kernel.

The kernel's heap holds ``(time, priority, seq, event)`` tuples and orders
them as tuples (see :mod:`repro.sim.kernel`); an :class:`Event` carries
the callback and is the handle used to cancel it.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback and its cancel handle.

    Do not construct directly — use :meth:`repro.sim.kernel.Simulator.schedule`.
    """

    __slots__ = ("callback", "args", "cancelled")

    def __init__(self, callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event cancelled; the kernel will skip it when popped."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"Event({name}, {state})"
