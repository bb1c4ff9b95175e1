"""Result-store layer: the SQLite store, specs, migration, concurrency.

The contracts pinned here (see docs/campaigns.md):

* a store spec is a SQLite file path; ``open_store`` refuses directories
  and the retired ``json:``/``sqlite:`` prefixes, and probing never
  creates anything;
* :class:`SqliteStore` holds records behind forgiving load/store
  semantics (WAL journaling, schema-versioned rows, each write durable
  at once, reopen persistence, miss-never-error validation);
* ``migrate`` ingests a legacy v1/v2 JSON record dir or another store
  file losslessly: the migrated store resumes the campaign with 100%
  hits and identical aggregates, a repeated ingest changes nothing, and
  a source store file is only ever read;
* a store file written before the claims table was dropped still opens
  and hits warm;
* two campaign invocations racing on one store — same shard or split
  shards — lose no records, double none, and aggregate identically to a
  serial reference run.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import sqlite3

import pytest

from repro.experiments.campaign import (
    CampaignSpec,
    collect_campaign,
    run_campaign,
    _execute,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.store import (
    SqliteStore,
    config_key,
    migrate,
    open_store,
    probe_store,
)

#: rounds-backend configs stabilize in milliseconds at this scale, so
#: store tests stay fast while running the full campaign machinery
FAST_ROUNDS = dict(backend="rounds", n_nodes=16, group_size=4)


def rounds_base(**kw) -> ScenarioConfig:
    merged = dict(FAST_ROUNDS)
    merged.update(kw)
    return ScenarioConfig.quick(**merged)


def rounds_spec(name="store-test", seeds=(1, 2), **kw) -> CampaignSpec:
    return CampaignSpec.from_mapping(
        name=name,
        base=rounds_base(**kw),
        protocols=("ss-spst", "ss-spst-e"),
        seeds=seeds,
    )


def _record_for(config: ScenarioConfig) -> dict:
    return _execute(config)


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class TestOpenStore:
    def test_any_path_is_a_sqlite_file(self, tmp_path):
        for name in ("a.sqlite", "b.db", "c.anything", "records"):
            store = open_store(str(tmp_path / name))
            assert isinstance(store, SqliteStore)
            store.close()
            assert (tmp_path / name).is_file()

    def test_explicit_json_prefix(self, tmp_path):
        """The retired ``json:``/``sqlite:`` spec prefixes are refused
        with an error that says what to do, and nothing is created."""
        for prefix in ("json:", "sqlite:"):
            spec = f"{prefix}{tmp_path / 'x.sqlite'}"
            with pytest.raises(ValueError, match="drop the prefix"):
                open_store(spec)
            with pytest.raises(ValueError, match="drop the prefix"):
                probe_store(spec)
        assert os.listdir(tmp_path) == []

    def test_existing_dir_is_refused(self, tmp_path):
        """A legacy JSON record dir is migrate input, never a store."""
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        for open_ in (open_store, probe_store):
            with pytest.raises(ValueError, match="migrate"):
                open_(str(legacy))
        assert os.listdir(legacy) == []

    def test_instance_passthrough(self, tmp_path):
        store = SqliteStore(str(tmp_path / "e.sqlite"))
        assert open_store(store) is store

    def test_probe_does_not_create(self, tmp_path):
        for spec in (
            str(tmp_path / "absent-file"),
            str(tmp_path / "absent.sqlite"),
        ):
            assert probe_store(spec) is None
            assert not os.path.exists(spec)

    def test_probe_opens_existing(self, tmp_path):
        path = str(tmp_path / "present.sqlite")
        SqliteStore(path).close()
        assert isinstance(probe_store(path), SqliteStore)


# ----------------------------------------------------------------------
# SQLite store
# ----------------------------------------------------------------------
class TestSqliteStore:
    def test_wal_mode(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        store.close()

    def test_roundtrip_and_reopen(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        cfg = rounds_base(seed=11, protocol="ss-spst")
        record = _record_for(cfg)
        with SqliteStore(path) as store:
            store.store(cfg, record)
        with SqliteStore(path) as store:  # records survive the process
            assert store.load(cfg) == record
            assert store.run_count() == 1
            assert store.keys() == [config_key(cfg)]

    def test_validation_misses(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        cfg = rounds_base(seed=13, protocol="ss-spst")
        record = _record_for(cfg)

        alien = dict(record, schema=99)  # future schema: miss, not error
        store.put(config_key(cfg), alien)
        assert store.load(cfg) is None

        wrong_backend = dict(record, backend="des")
        store.put(config_key(cfg), wrong_backend)
        assert store.load(cfg) is None

        edited = dict(record, config=dict(record["config"], seed=999))
        store.put(config_key(cfg), edited)  # hand-edited: identity fails
        assert store.load(cfg) is None

        store.put(config_key(cfg), record)
        assert store.load(cfg) == record
        store.close()

    def test_truncated_record_is_a_miss(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        cfg = rounds_base(seed=5, protocol="ss-spst")
        store.store(cfg, _record_for(cfg))
        with store._conn:  # a torn or hand-edited record column
            store._conn.execute(
                "UPDATE runs SET record = ? WHERE key = ?",
                ('{"schema": 2, "config"', config_key(cfg)),
            )
        assert store.load(cfg) is None
        store.close()

    def test_duplicate_put_keeps_one_row(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        cfg = rounds_base(seed=17, protocol="ss-spst")
        record = _record_for(cfg)
        for _ in range(3):  # racing invocations / repeated merges collapse
            store.put(config_key(cfg), record)
        assert store.run_count() == 1
        store.close()

    def test_each_put_is_durable_at_once(self, tmp_path):
        """No write buffer: another connection sees every record as soon
        as ``store`` returns, before any flush or close."""
        path = str(tmp_path / "s.sqlite")
        store = SqliteStore(path)
        with SqliteStore(path) as reader:
            for seed in (19, 23):
                cfg = rounds_base(seed=seed, protocol="ss-spst")
                record = _record_for(cfg)
                store.store(cfg, record)
                assert reader.load(cfg) == record
            assert reader.run_count() == 2
        store.close()

    def test_put_many_is_one_batch(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        cfgs = [rounds_base(seed=s, protocol="ss-spst") for s in (29, 31, 37)]
        items = [(config_key(c), _record_for(c)) for c in cfgs]
        assert store.put_many(items) == 3
        assert store.run_count() == 3
        store.close()


# ----------------------------------------------------------------------
# Campaigns through the store
# ----------------------------------------------------------------------
class TestCampaignParity:
    def test_cold_then_warm(self, test_store):
        spec = rounds_spec()
        cold = run_campaign(spec, store=test_store)
        assert cold.executed == spec.size()
        warm = run_campaign(spec, store=test_store)
        assert (warm.executed, warm.cache_hits) == (0, spec.size())
        for a, b in zip(cold.results, warm.results):
            assert a.summary == b.summary

    def test_shard_split_reassembles(self, test_store):
        spec = rounds_spec()
        n0 = run_campaign(spec, store=test_store, shard=(0, 2))
        n1 = run_campaign(spec, store=test_store, shard=(1, 2))
        assert n0.executed + n1.executed == spec.size()
        final = run_campaign(spec, store=test_store)
        assert (final.executed, final.cache_hits) == (0, spec.size())

    def test_collect_campaign_never_executes(self, test_store):
        spec = rounds_spec()
        run_campaign(spec, store=test_store, shard=(0, 2))
        partial = collect_campaign(spec, test_store)
        assert partial.executed == 0
        assert 0 < partial.cache_hits < spec.size()
        assert partial.skipped == spec.size() - partial.cache_hits


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
class TestMigration:
    def test_json_dir_to_sqlite_losslessly(self, tmp_path, legacy_json_dir):
        spec = rounds_spec(seeds=(1, 2, 3))
        reference = run_campaign(spec)
        json_root = legacy_json_dir(spec.configs())

        # debris a real long-lived record dir accumulates: must be
        # skipped, never migrated, never fatal
        (tmp_path / "legacy" / "notes.json").write_text('{"a": 1}')
        (tmp_path / "legacy" / "broken.json").write_text("{nope")

        dest = str(tmp_path / "migrated.sqlite")
        with SqliteStore(dest) as store:
            migrated, skipped = migrate(json_root, store)
        assert migrated == spec.size()
        assert skipped == 2

        # acceptance: the migrated store resumes with 100% hits and
        # reports identical aggregates to the JSON original
        warm = run_campaign(spec, store=dest)
        assert (warm.executed, warm.cache_hits) == (0, spec.size())
        for metric in ("rounds", "moves", "evaluations"):
            extract = reference.extractor(metric)
            assert reference.aggregate(extract) == warm.aggregate(extract)

    def test_v1_des_record_survives_migration(self, tmp_path):
        """A v1-era record (schema 1, no backend key) migrates byte-for-
        byte and keeps loading through the SQLite store."""
        cfg = ScenarioConfig.quick(
            sim_time=12.0, n_nodes=16, group_size=4, seed=1,
            protocol="ss-spst",
        )
        record = _execute(cfg)
        v1 = {k: v for k, v in record.items() if k != "backend"}
        v1["schema"] = 1
        json_root = tmp_path / "records"
        json_root.mkdir()
        with open(json_root / f"{config_key(cfg)}.json", "w") as fh:
            json.dump(v1, fh, sort_keys=True)

        with SqliteStore(str(tmp_path / "migrated.sqlite")) as store:
            migrated, skipped = migrate(str(json_root), store)
            loaded = store.load(cfg)
        assert (migrated, skipped) == (1, 0)
        assert loaded is not None
        assert loaded["schema"] == 1
        assert loaded["summary"] == v1["summary"]


    def test_store_file_source_is_copied_row_for_row(self, tmp_path):
        """A store file migrates under its keys and schemas; heartbeats
        stay behind, and a torn row is skipped, never fatal."""
        spec = rounds_spec()
        src = str(tmp_path / "shard.sqlite")
        run_campaign(spec, store=src)
        cfg = rounds_base(seed=43, protocol="ss-spst")
        with SqliteStore(src) as store:
            store.heartbeat("worker-a")
            store.put("torn", dict(_record_for(cfg), schema=2))
            with store._conn:
                store._conn.execute(
                    "UPDATE runs SET record = '{\"schema\"' WHERE key = 'torn'"
                )
            source_rows = {key: store.get(key) for key in store.keys()}

        with SqliteStore(str(tmp_path / "merged.sqlite")) as dest:
            assert migrate(src, dest) == (spec.size(), 1)
            assert dest.heartbeats() == {}
            del source_rows["torn"]
            assert {key: dest.get(key) for key in dest.keys()} == source_rows

    def test_migrating_twice_changes_nothing(self, tmp_path, legacy_json_dir):
        spec = rounds_spec()
        json_root = legacy_json_dir(spec.configs())
        src = str(tmp_path / "shard.sqlite")
        run_campaign(rounds_spec(seeds=(3,)), store=src)
        with SqliteStore(str(tmp_path / "merged.sqlite")) as dest:
            snapshots = []
            for _ in range(2):
                migrate(json_root, dest)
                migrate(src, dest)
                snapshots.append(
                    (dest.run_count(), {k: dest.get(k) for k in dest.keys()})
                )
        assert snapshots[0] == snapshots[1]
        assert snapshots[0][0] == spec.size() + 2

    def test_store_file_source_is_read_only(self, tmp_path):
        spec = rounds_spec()
        src = tmp_path / "shard.sqlite"
        run_campaign(spec, store=str(src))
        before = hashlib.sha256(src.read_bytes()).hexdigest()
        with SqliteStore(str(tmp_path / "merged.sqlite")) as dest:
            assert migrate(str(src), dest) == (spec.size(), 0)
        assert hashlib.sha256(src.read_bytes()).hexdigest() == before

    def test_missing_source_raises_and_creates_nothing(self, tmp_path):
        dest_path = tmp_path / "dest" / "merged.sqlite"
        with SqliteStore(str(dest_path)) as dest:
            with pytest.raises(sqlite3.OperationalError):
                migrate(str(tmp_path / "absent.sqlite"), dest)
        assert sorted(os.listdir(tmp_path)) == ["dest"]


class TestOldStoreFiles:
    def test_store_file_with_a_claims_table_hits_warm(self, tmp_path):
        """A file written while the store still kept cross-process run
        claims (an extra ``claims`` table, possibly with rows) opens,
        hits warm, and takes new records."""
        spec = rounds_spec()
        path = str(tmp_path / "old.sqlite")
        run_campaign(spec, store=path)
        with sqlite3.connect(path) as conn:
            conn.execute(
                """CREATE TABLE claims (
                       key TEXT PRIMARY KEY,
                       worker TEXT NOT NULL,
                       since_s REAL NOT NULL
                   )"""
            )
            conn.execute("INSERT INTO claims VALUES ('k', 'host-1-w0', 0.0)")
        conn.close()
        warm = run_campaign(spec, store=path)
        assert (warm.executed, warm.cache_hits) == (0, spec.size())
        grown = run_campaign(rounds_spec(seeds=(1, 2, 3)), store=path)
        assert grown.executed == 2


# ----------------------------------------------------------------------
# Concurrent access
# ----------------------------------------------------------------------
def _race_child(args) -> int:
    """Child-process body: run one campaign invocation against the
    shared store (top level so the spawn start method could pickle it)."""
    spec, store, shard = args
    result = run_campaign(spec, store=store, shard=shard)
    return result.executed


class TestConcurrentAccess:
    def _race(self, store, shards):
        spec = rounds_spec(seeds=(1, 2, 3))
        with multiprocessing.Pool(len(shards)) as pool:
            executed = pool.map(
                _race_child,
                [(spec, store, shard) for shard in shards],
            )
        return spec, executed

    def test_racing_shards(self, test_store):
        """Two shards writing one store concurrently: no lost records,
        no doubled records, aggregates identical to a serial run."""
        spec, executed = self._race(test_store, [(0, 2), (1, 2)])
        assert sum(executed) == spec.size()

        with open_store(test_store) as store:
            assert store.run_count() == spec.size()  # none lost or doubled
        assembled = collect_campaign(spec, test_store)
        assert assembled.skipped == 0

        serial = run_campaign(rounds_spec(seeds=(1, 2, 3)))
        for metric in ("rounds", "moves"):
            extract = serial.extractor(metric)
            assert assembled.aggregate(extract) == serial.aggregate(extract)

    def test_racing_full_overlap(self, test_store):
        """Worst case: two unsharded invocations of the whole campaign.
        Work is duplicated (both execute), records are not (idempotent
        keyed writes collapse the duplicates)."""
        spec, _ = self._race(test_store, [None, None])
        with open_store(test_store) as store:
            assert store.run_count() == spec.size()
        assembled = collect_campaign(spec, test_store)
        assert assembled.skipped == 0
        serial = run_campaign(rounds_spec(seeds=(1, 2, 3)))
        extract = serial.extractor("rounds")
        assert assembled.aggregate(extract) == serial.aggregate(extract)
