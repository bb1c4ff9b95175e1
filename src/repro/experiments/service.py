"""The campaign service: one warm store, many concurrent consumers.

The importable counterpart of the ``submit``/``status``/``results``/
``migrate`` CLI subcommands (see ``docs/campaigns.md``).  A
:class:`CampaignService` binds a result store and a scheduler once;
figures, benches, notebooks and CI legs on the store's host then share
that warm store — submitting campaigns, watching partial aggregates
stream in, merging shard stores, and assembling tables — without each
reinventing store/scheduler plumbing::

    from repro.experiments.service import CampaignService

    svc = CampaignService("campaign.sqlite", workers=4)
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
from repro.experiments.scheduler import Scheduler
from repro.experiments.store import SqliteStore, migrate, open_store

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
        self.store: SqliteStore = open_store(store)
        self.scheduler = scheduler
        self.workers = workers

    # ------------------------------------------------------------------
    def submit(
        self,
        spec: CampaignSpec,
        *,
        shard: Optional[Tuple[int, int]] = None,
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
            memo=memo,
            progress=progress,
            on_update=on_update,
        )

    def status(
        self, spec: CampaignSpec, metrics: Optional[Sequence[str]] = None
    ) -> CampaignStatus:
        """The streaming per-cell view of ``spec`` — read-only, safe
        while schedulers on this host are writing to the store."""
        return campaign_status(spec, self.store, metrics=metrics)

    def results(
        self, spec: CampaignSpec, memo: Optional[Dict] = None
    ) -> CampaignResult:
        """Assemble ``spec`` from the store without executing anything."""
        return collect_campaign(spec, self.store, memo=memo)

    def migrate_from(self, src: str) -> Tuple[int, int]:
        """Ingest a shard's store file or a legacy JSON record dir (see
        :func:`~repro.experiments.store.migrate`); returns (migrated,
        skipped)."""
        return migrate(src, self.store)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "CampaignService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
