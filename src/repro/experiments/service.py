"""The campaign service: one warm store, many concurrent consumers.

The importable counterpart of the ``submit``/``status``/``results`` CLI
subcommands (see ``docs/campaigns.md``).  A :class:`CampaignService`
binds a result store and a scheduler once; figures, benches, notebooks
and CI legs then share that warm store — submitting campaigns, watching
partial aggregates stream in, and assembling tables — without each
reinventing store/scheduler plumbing::

    from repro.experiments.service import CampaignService

    svc = CampaignService.open("campaign.sqlite", scheduler="async",
                               workers=4)
    svc.submit(spec)                  # executes only what's missing
    print(svc.status(spec).format_table())   # streaming per-cell CI
    table = svc.results(spec)         # read-only assembly
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.aggregation import CampaignStatus, campaign_status
from repro.experiments.campaign import (
    CampaignResult,
    CampaignSpec,
    collect_campaign,
    run_campaign,
)
from repro.experiments.scheduler import Scheduler, scheduler_by_name
from repro.experiments.store import (
    ResultStore,
    migrate_json_dir,
    open_store,
)

__all__ = ["CampaignService"]


class CampaignService:
    """Submit/status/results over one shared result store.

    With no ``scheduler``, each submit picks one by
    :func:`~repro.experiments.scheduler.default_scheduler` from
    ``workers`` and the runs still pending.
    """

    def __init__(
        self, store, scheduler: Optional[Scheduler] = None, workers: int = 1
    ) -> None:
        self.store: ResultStore = open_store(store)
        self.scheduler = scheduler
        self.workers = workers

    @classmethod
    def open(
        cls, store, scheduler: Optional[str] = None, workers: int = 1
    ) -> "CampaignService":
        """Build a service from a store spec and a scheduler name."""
        named = scheduler_by_name(scheduler, workers) if scheduler else None
        return cls(store, named, workers)

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: CampaignSpec,
        *,
        shard: Optional[Tuple[int, int]] = None,
        steal: bool = False,
        memo: Optional[Dict] = None,
        progress=None,
        on_update=None,
    ) -> CampaignResult:
        """Run ``spec``, executing only the runs the store is missing."""
        return run_campaign(
            spec,
            workers=self.workers,
            store=self.store,
            scheduler=self.scheduler,
            shard=shard,
            steal=steal,
            memo=memo,
            progress=progress,
            on_update=on_update,
        )

    def status(
        self, spec: CampaignSpec, metrics: Optional[Sequence[str]] = None
    ) -> CampaignStatus:
        """The streaming per-cell view of ``spec`` — read-only, safe
        while schedulers (here or on other machines) are writing."""
        return campaign_status(spec, self.store, metrics=metrics)

    def results(
        self, spec: CampaignSpec, memo: Optional[Dict] = None
    ) -> CampaignResult:
        """Assemble ``spec`` from the store without executing anything."""
        return collect_campaign(spec, self.store, memo=memo)

    def migrate_from(self, json_root: str) -> Tuple[int, int]:
        """Ingest a legacy JSON cache dir; returns (migrated, skipped)."""
        return migrate_json_dir(json_root, self.store)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
