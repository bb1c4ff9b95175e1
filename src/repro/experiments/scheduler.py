"""Schedulers: pluggable execution engines for campaign runs.

This is the **scheduler layer** of the campaign service (see
``docs/campaigns.md``).  A :class:`Scheduler` takes a list of indexed
jobs and a worker function and delivers ``(index, result)`` pairs to a
callback in completion order; everything else — cache lookups, sharding,
persistence, aggregation — stays in the layers around it.  Two engines:

* :class:`SerialScheduler` — in-process loop (deterministic, zero
  overhead; what ``workers=1`` always meant).
* :class:`AsyncScheduler` — an asyncio job queue over a process-pool
  executor: workers *steal* from one shared deque (a slow run never
  idles the other workers), publish heartbeats through the result
  store, and cancel gracefully — a :class:`CancelCampaign` raised by
  the result callback stops dispatch, lets in-flight runs finish and
  deliver, then re-raises.  Combined with per-record persistence this
  makes any campaign killable and resumable at run granularity.

:func:`default_scheduler` is the one rule for callers that name no
engine: serial when at most one worker would be busy, else async.
Async workers are separate processes, so the worker function and job
payloads must be picklable top-level callables.
"""

from __future__ import annotations

import abc
import asyncio
import collections
import concurrent.futures
import os
import socket
import time
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "CancelCampaign",
    "Scheduler",
    "SerialScheduler",
    "AsyncScheduler",
    "SCHEDULER_NAMES",
    "default_scheduler",
    "scheduler_by_name",
]

#: payload of one schedulable run: (slot index, worker-function argument)
Job = Tuple[int, object]
#: delivery callback: on_result(slot index, worker-function return)
OnResult = Callable[[int, object], None]


class CancelCampaign(Exception):
    """Raised *by a result callback* to stop a campaign gracefully.

    Schedulers treat it as a cancellation signal, not an error: dispatch
    stops, in-flight runs are drained (delivered where the engine can),
    and the exception propagates to the caller, which keeps every result
    delivered so far.  :func:`repro.experiments.campaign.run_campaign`
    turns it into a partial :class:`CampaignResult` marked ``cancelled``.
    """


def worker_id(slot: int = 0) -> str:
    """A heartbeat identity unique per host / process / worker slot."""
    return f"{socket.gethostname()}-{os.getpid()}-w{slot}"


class Scheduler(abc.ABC):
    """One way of executing a batch of independent jobs."""

    name: str = "?"

    @abc.abstractmethod
    def execute(
        self,
        fn: Callable[[object], object],
        jobs: Sequence[Job],
        on_result: OnResult,
        store=None,
    ) -> None:
        """Run ``fn(payload)`` for every ``(index, payload)`` job.

        ``on_result(index, result)`` fires in completion order, in the
        caller's process/thread.  ``store`` (a
        :class:`~repro.experiments.store.ResultStore`) is the heartbeat
        channel for engines that publish liveness; others ignore it.
        A :class:`CancelCampaign` from ``on_result`` stops dispatching
        and re-raises after the engine has wound down.
        """


class SerialScheduler(Scheduler):
    """In-process sequential execution (the ``workers=1`` path)."""

    name = "serial"

    def execute(self, fn, jobs, on_result, store=None) -> None:
        for i, payload in jobs:
            on_result(i, fn(payload))


class AsyncScheduler(Scheduler):
    """Asyncio job queue over a process pool: stealing, heartbeats,
    graceful cancel.

    ``workers`` coroutines pull from one shared deque — there is no
    up-front partition of jobs to workers, so a worker that lands a slow
    run simply contributes fewer runs while the others drain the rest
    (work stealing).  Each worker publishes a heartbeat row through the
    result store every ``heartbeat_s`` while the campaign runs, so
    ``status`` views can show who is alive and what they are doing.
    CPU-bound runs execute in a ``ProcessPoolExecutor``; the event loop
    only coordinates.
    """

    name = "async"

    def __init__(self, workers: int = 1, heartbeat_s: float = 2.0) -> None:
        self.workers = max(1, int(workers))
        self.heartbeat_s = heartbeat_s

    def execute(self, fn, jobs, on_result, store=None) -> None:
        asyncio.run(self._drive(fn, list(jobs), on_result, store))

    async def _drive(self, fn, jobs: List[Job], on_result, store) -> None:
        queue = collections.deque(jobs)
        cancelled = asyncio.Event()  # a callback asked to stop
        done = asyncio.Event()  # winding down (also ends heartbeats)
        n = min(self.workers, len(jobs)) or 1
        loop = asyncio.get_running_loop()
        with concurrent.futures.ProcessPoolExecutor(max_workers=n) as pool:
            beats = asyncio.create_task(self._heartbeat_loop(store, n, done))
            try:
                await asyncio.gather(
                    *(
                        self._worker(
                            slot, fn, queue, on_result, pool, cancelled, loop
                        )
                        for slot in range(n)
                    )
                )
            finally:
                done.set()
                beats.cancel()
                try:
                    await beats
                except asyncio.CancelledError:
                    pass
                if store is not None:
                    for slot in range(n):
                        store.heartbeat(worker_id(slot), state="done")
        if cancelled.is_set():
            raise CancelCampaign()

    async def _worker(
        self, slot, fn, queue, on_result, pool, cancelled, loop
    ) -> None:
        while queue and not cancelled.is_set():
            i, payload = queue.popleft()  # steal the next run, whoever's
            result = await loop.run_in_executor(pool, fn, payload)
            try:
                # Deliver even when another worker cancelled meanwhile:
                # a finished run is a finished run, and persisting it is
                # what makes cancellation resume-safe.
                on_result(i, result)
            except CancelCampaign:
                cancelled.set()

    async def _heartbeat_loop(self, store, n, done) -> None:
        if store is None:
            return
        while not done.is_set():
            for slot in range(n):
                store.heartbeat(worker_id(slot), state="running")
            try:
                await asyncio.wait_for(done.wait(), timeout=self.heartbeat_s)
            except asyncio.TimeoutError:
                continue


SCHEDULER_NAMES = ("serial", "async")


def default_scheduler(workers: int, n_jobs: int) -> Scheduler:
    """The engine used when the caller names none: in-process when at
    most one worker would be busy, else the async queue."""
    if min(workers, n_jobs) <= 1:
        return SerialScheduler()
    return AsyncScheduler(workers=workers)


def scheduler_by_name(name: str, workers: int = 1) -> Scheduler:
    """Resolve a ``--scheduler`` value into an engine instance."""
    if name == "serial":
        return SerialScheduler()
    if name == "async":
        return AsyncScheduler(workers=workers)
    raise ValueError(
        f"unknown scheduler {name!r}; choose from {SCHEDULER_NAMES}"
    )
