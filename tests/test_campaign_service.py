"""Scheduler layer, streaming aggregation, and the campaign service.

Pins the contracts of the refactor's upper layers (docs/campaigns.md):

* the two schedulers (serial / async) are interchangeable — same
  campaign, bit-identical aggregates — and the default picks serial
  whenever at most one worker would be busy;
* the async engine publishes worker heartbeats through the store,
  cancels gracefully mid-campaign (everything delivered so far is
  persisted), and a killed-and-resumed invocation converges to the
  same final table as an uninterrupted run;
* shards write their own store files, and ``migrate`` merges them into
  a store that assembles the campaign with zero runs executed and the
  same aggregate table and ``--json-out`` cells as one un-sharded run;
* streaming per-cell aggregation equals batch ``aggregate`` bit-for-bit
  in any arrival order (hypothesis property), because ``mean_ci`` *is*
  the Welford fold;
* the ``submit`` / ``status`` / ``results`` / ``migrate`` CLI
  subcommands and the importable :class:`CampaignService` drive the
  same layers end to end.
"""

from __future__ import annotations

import json
import os
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import mean_ci
from repro.experiments.aggregation import (
    StreamingAggregate,
    Welford,
    campaign_status,
)
from repro.experiments.campaign import (
    CampaignSpec,
    main,
    run_campaign,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.scheduler import (
    AsyncScheduler,
    CancelCampaign,
    SerialScheduler,
    default_scheduler,
)
from repro.experiments.service import CampaignService
from repro.experiments.store import open_store

FAST_ROUNDS = dict(backend="rounds", n_nodes=16, group_size=4)


def rounds_base(**kw) -> ScenarioConfig:
    merged = dict(FAST_ROUNDS)
    merged.update(kw)
    return ScenarioConfig.quick(**merged)


def rounds_spec(name="svc-test", seeds=(1, 2), grid=None, **kw) -> CampaignSpec:
    return CampaignSpec.from_mapping(
        name=name,
        base=rounds_base(**kw),
        protocols=("ss-spst", "ss-spst-e"),
        seeds=seeds,
        grid=grid,
    )


#: a figd02-style campaign: rounds backend, a scale axis, several seeds
def deep_spec() -> CampaignSpec:
    return rounds_spec(
        name="svc-deep", seeds=(1, 2), grid={"n_nodes": (12, 16)}
    )


# ----------------------------------------------------------------------
# Scheduler interchangeability
# ----------------------------------------------------------------------
class TestSchedulers:
    def test_default_rule(self):
        """Serial whenever at most one worker would be busy."""
        assert isinstance(default_scheduler(1, 8), SerialScheduler)
        assert isinstance(default_scheduler(4, 1), SerialScheduler)
        engine = default_scheduler(4, 2)
        assert isinstance(engine, AsyncScheduler) and engine.workers == 4

    def test_engines_agree_bit_for_bit(self):
        """Same campaign through both engines: identical tables."""
        spec = rounds_spec()
        tables = []
        for engine in (
            SerialScheduler(),
            AsyncScheduler(workers=2, heartbeat_s=0.1),
        ):
            result = run_campaign(spec, scheduler=engine)
            assert result.executed == spec.size()
            tables.append(result.format_table(("rounds", "moves")))
        assert tables[0] == tables[1]

    def test_async_heartbeats_land_in_store(self, test_store):
        engine = AsyncScheduler(workers=2, heartbeat_s=0.01)
        run_campaign(rounds_spec(), store=test_store, scheduler=engine)
        with open_store(test_store) as store:
            beats = store.heartbeats()
        assert beats, "async scheduler should have published heartbeats"
        assert all(info["state"] == "done" for info in beats.values())
        assert all("seen_s" in info for info in beats.values())


# ----------------------------------------------------------------------
# Graceful cancel and resume
# ----------------------------------------------------------------------
class TestCancelResume:
    def _cancel_after(self, k: int):
        def on_update(stream):
            if stream.done >= k:
                raise CancelCampaign()

        return on_update

    def test_cancel_persists_partials_then_resume_converges(self, tmp_path):
        """The acceptance scenario: an async figd02-style campaign on a
        SQLite store is cancelled mid-flight; ``status`` shows streaming
        per-cell aggregates of the partial store; re-invoking converges
        to the same table as an uninterrupted reference run."""
        spec = deep_spec()
        store = str(tmp_path / "deep.sqlite")
        partial = run_campaign(
            spec,
            store=store,
            scheduler=AsyncScheduler(workers=2, heartbeat_s=0.05),
            on_update=self._cancel_after(3),
        )
        assert partial.cancelled
        assert 3 <= partial.executed < spec.size()
        assert partial.stream.done == partial.executed

        # the status view streams whatever has landed, mid-campaign
        status = campaign_status(spec, store)
        assert status.done == partial.executed
        assert not status.complete
        assert 0 < sum(status.counts.values()) < spec.size()
        table = status.format_table()
        assert "/2" in table  # n/total landed-count column
        assert any(status.aggregates[m] for m in status.metrics)

        # resume: only the missing runs execute, and the final table is
        # exactly what an uninterrupted run produces
        resumed = run_campaign(spec, store=store)
        assert resumed.cancelled is False
        assert resumed.cache_hits == partial.executed
        assert resumed.executed == spec.size() - partial.executed
        reference = run_campaign(spec)
        assert resumed.format_table(("rounds", "moves")) == (
            reference.format_table(("rounds", "moves"))
        )

    def test_serial_cancel_is_graceful_too(self, test_store):
        spec = rounds_spec()
        result = run_campaign(
            spec, store=test_store, on_update=self._cancel_after(1)
        )
        assert result.cancelled
        assert result.executed == 1
        with open_store(test_store) as store:
            assert store.run_count() == 1  # the delivered run is durable


# ----------------------------------------------------------------------
# Sharded stores merged by migrate
# ----------------------------------------------------------------------
class TestShardedStores:
    def test_foreign_shard_runs_are_skipped(self, test_store):
        spec = rounds_spec(seeds=(1, 2, 3))
        result = run_campaign(spec, store=test_store, shard=(0, 2))
        assert result.skipped > 0
        assert result.executed + result.skipped == spec.size()

    def test_merged_shard_stores_equal_one_unsharded_store(
        self, tmp_path, capsys
    ):
        """Two shards, each into its own file, merged by ``migrate``: a
        run on the merged file executes nothing, and its table and
        ``--json-out`` cells are bit-identical to one un-sharded store."""
        spec = rounds_spec(name="cli-svc")  # the campaign SPEC_ARGS names
        metrics = ("rounds", "moves", "evaluations")
        merged = str(tmp_path / "merged.sqlite")
        executed = []
        for index in (0, 1):
            shard_file = str(tmp_path / f"shard{index}.sqlite")
            executed.append(
                run_campaign(spec, store=shard_file, shard=(index, 2)).executed
            )
            assert main(["migrate", shard_file, merged, "--quiet"]) == 0
        assert 0 not in executed and sum(executed) == spec.size()

        single = str(tmp_path / "single.sqlite")
        reference = run_campaign(spec, store=single)
        warm = run_campaign(spec, store=merged)
        assert (warm.executed, warm.cache_hits) == (0, spec.size())
        assert warm.format_table(metrics) == reference.format_table(metrics)

        cells = {}
        for name, store in (("merged", merged), ("single", single)):
            out = str(tmp_path / f"{name}.json")
            assert main(SPEC_ARGS + [
                "--store", store, "--metrics", ",".join(metrics),
                "--json-out", out, "--quiet",
            ]) == 0
            assert "executed=0 cached=4" in capsys.readouterr().out
            with open(out, encoding="utf-8") as fh:
                cells[name] = json.load(fh)["cells"]
        assert cells["merged"] == cells["single"]
        assert len(cells["merged"]) == len(spec.cells())

    def test_migrate_from_a_missing_store_file_creates_nothing(
        self, tmp_path
    ):
        missing = str(tmp_path / "no-such-shard.sqlite")
        dest = str(tmp_path / "merged.sqlite")
        with pytest.raises(SystemExit, match="does not exist"):
            main(["migrate", missing, dest])
        assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------------
# Streaming aggregation == batch aggregation, bit for bit
# ----------------------------------------------------------------------
_REF_CACHE = {}


def _reference_campaign():
    """One uncached serial campaign shared by the property tests (8 runs:
    2 protocols x 2 seeds x 2 grid points)."""
    if "campaign" not in _REF_CACHE:
        _REF_CACHE["campaign"] = run_campaign(deep_spec())
    return _REF_CACHE["campaign"]


finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestStreamingAggregation:
    @given(st.lists(finite_floats, min_size=1, max_size=50))
    @settings(deadline=None)
    def test_mean_ci_is_exactly_the_welford_fold(self, values):
        """There is one aggregation implementation: the batch helper is
        the streaming fold, so the two can never drift apart."""
        assert mean_ci(values) == Welford().extend(values).ci()

    @given(st.permutations(list(range(8))))
    @settings(deadline=None, max_examples=30)
    def test_any_arrival_order_matches_batch_bit_for_bit(self, order):
        """Runs land in completion order (async makes it arbitrary);
        the snapshot folds slot-ordered, so it equals the batch
        ``aggregate`` exactly — not approximately."""
        ref = _reference_campaign()
        assert len(ref.results) == 8
        stream = StreamingAggregate(ref.spec, ("rounds", "moves"))
        for i in order:
            stream.update(i, ref.results[i])
        snapshot = stream.snapshot()
        for metric in ("rounds", "moves"):
            assert snapshot[metric] == ref.aggregate(ref.extractor(metric))

    def test_update_is_idempotent_per_slot(self):
        ref = _reference_campaign()
        stream = StreamingAggregate(ref.spec, ("rounds",))
        for _ in range(3):  # racing shards may deliver a slot twice
            stream.update(0, ref.results[0])
        assert stream.done == 1


# ----------------------------------------------------------------------
# The importable service
# ----------------------------------------------------------------------
class TestCampaignService:
    def test_submit_status_results_roundtrip(self, test_store):
        spec = rounds_spec()
        with CampaignService(test_store, SerialScheduler()) as svc:
            submitted = svc.submit(spec)
            assert submitted.executed == spec.size()

            status = svc.status(spec)
            assert status.complete
            assert status.done == spec.size()

            assembled = svc.results(spec)
            assert assembled.executed == 0
            assert assembled.cache_hits == spec.size()
            assert assembled.format_table(("rounds",)) == (
                submitted.format_table(("rounds",))
            )

            resubmitted = svc.submit(spec)  # warm: nothing to execute
            assert resubmitted.executed == 0

    def test_migrate_from_json_cache(self, tmp_path, legacy_json_dir):
        spec = rounds_spec()
        json_root = legacy_json_dir(spec.configs())
        with CampaignService(str(tmp_path / "svc.sqlite")) as svc:
            migrated, skipped = svc.migrate_from(json_root)
            assert (migrated, skipped) == (spec.size(), 0)
            assert svc.submit(spec).cache_hits == spec.size()

    def test_landed_runs_are_on_disk_after_migrate_from(
        self, tmp_path, legacy_json_dir
    ):
        """Regression: a migration must not leave the store buffering
        writes.  After ``migrate_from``, each run a submit lands is
        already on disk (seen through a separate connection) when
        ``on_update`` fires, so a killed campaign loses at most its
        in-flight runs."""
        spec = rounds_spec()
        configs = spec.configs()
        path = str(tmp_path / "svc.sqlite")
        on_disk = []

        def on_update(stream):
            with sqlite3.connect(path) as conn:
                (count,) = conn.execute(
                    "SELECT COUNT(DISTINCT key) FROM runs"
                ).fetchone()
            on_disk.append(count)

        with CampaignService(path, SerialScheduler()) as svc:
            svc.migrate_from(legacy_json_dir(configs[:1]))
            svc.submit(spec, on_update=on_update)
        assert on_disk == list(range(2, len(configs) + 1))


# ----------------------------------------------------------------------
# CLI: subcommands and the flat compat surface
# ----------------------------------------------------------------------
SPEC_ARGS = [
    "--backend", "rounds",
    "--set", "n_nodes=16",
    "--set", "group_size=4",
    "--protocols", "ss-spst,ss-spst-e",
    "--seeds", "1,2",
    "--name", "cli-svc",
]


class TestCli:
    def test_flat_async_scheduler_and_sqlite_store(self, tmp_path, capsys):
        store = str(tmp_path / "cli.sqlite")
        args = SPEC_ARGS + ["--store", store, "--workers", "2", "--quiet"]
        assert main(args) == 0
        assert "executed=4 cached=0" in capsys.readouterr().out
        with open_store(store) as opened:  # 2 workers x 4 runs: async
            assert opened.heartbeats()
        assert main(args) == 0  # warm re-run through the same store
        assert "executed=0 cached=4" in capsys.readouterr().out

    def test_submit_is_the_flat_cli_under_its_service_name(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "records.sqlite")
        assert main(["submit"] + SPEC_ARGS + ["--store", store, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "# campaign cli-svc: 4 runs (executed=4" in out

    def test_status_subcommand_streams_partials(self, tmp_path, capsys):
        store = str(tmp_path / "records.sqlite")
        # half the campaign (one shard) has landed; status must say so
        spec = rounds_spec(name="cli-svc")
        partial = run_campaign(spec, store=store, shard=(0, 2))
        capsys.readouterr()
        assert main(["status"] + SPEC_ARGS + ["--store", store]) == 0
        out = capsys.readouterr().out
        assert f"{partial.executed}/4 runs complete" in out
        assert "[complete]" not in out
        assert "# workers:" in out

    def test_status_on_absent_store(self, tmp_path, capsys):
        absent = str(tmp_path / "never-created")
        assert main(["status"] + SPEC_ARGS + ["--store", absent]) == 0
        assert "(store absent)" in capsys.readouterr().out
        import os

        assert not os.path.exists(absent)  # status never creates stores

    def test_retired_store_specs_are_clean_cli_errors(self, tmp_path):
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        for verb in ([], ["status"], ["results"]):
            for spec, hint in (
                (str(legacy), "migrate"),
                (f"json:{legacy}", "drop the prefix"),
            ):
                with pytest.raises(SystemExit, match=hint):
                    main(verb + SPEC_ARGS + ["--store", spec])
        assert os.listdir(tmp_path) == ["legacy"]

    def test_results_subcommand_and_json_out(self, tmp_path, capsys):
        store = str(tmp_path / "records.sqlite")
        out_path = str(tmp_path / "campaign.json")
        run_campaign(rounds_spec(name="cli-svc"), store=store)
        capsys.readouterr()
        argv = ["results"] + SPEC_ARGS + [
            "--store", store, "--json-out", out_path
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "stored=4 missing=0" in out
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["campaign"] == "cli-svc"
        assert payload["cells"]  # aggregates made it into the record

    def test_migrate_subcommand_end_to_end(
        self, tmp_path, capsys, legacy_json_dir
    ):
        sqlite_spec = str(tmp_path / "migrated.sqlite")
        # 1. a legacy JSON record dir holding the whole campaign
        json_root = legacy_json_dir(rounds_spec(name="cli-svc").configs())
        # 2. migrate it into SQLite
        assert main(["migrate", json_root, sqlite_spec, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "# migrated 4 records" in out
        # 3. the migrated store resumes the campaign with 100% hits
        assert main(
            SPEC_ARGS + ["--store", sqlite_spec, "--quiet"]
        ) == 0
        assert "executed=0 cached=4" in capsys.readouterr().out
