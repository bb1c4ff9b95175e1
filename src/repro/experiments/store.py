"""The result store: persistence for campaign run records.

This module is the **store layer** of the campaign service (see
``docs/campaigns.md``).  It owns two things the rest of the experiment
stack builds on:

* **Run identity** — :func:`config_key` (the stable content hash of a
  :class:`~repro.experiments.config.ScenarioConfig`), the record schema
  constants, and :func:`shard_of` (the deterministic config-hash shard
  partition).  These are byte-for-byte the historical definitions: a
  record written by any earlier version keeps hitting, and ``--shard
  I/K`` assigns every run to the same shard it always did.
* **The store** — :class:`SqliteStore`, one row per run in an
  append-only SQLite table indexed by config hash + schema version, with
  WAL journaling.  A store spec is the path of its file.  WAL needs
  every process that opens the file to run on one host, so a store file
  belongs to one host: shards write their own files, and
  :func:`migrate` — the one way records enter a store from elsewhere —
  merges them, or ingests a legacy ``<hash>.json`` record dir.

Lookups are forgiving: unreadable, stale-schema, foreign-backend or
hand-edited records are *misses*, never errors, so a corrupt store can
never fail a campaign.  The store also carries worker **heartbeats**, a
side channel of the scheduler layer that ``status`` reads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import sqlite3
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.experiments.config import ScenarioConfig

#: record-layout version written to new records.  v2 added the
#: optional ``backend`` key (absent = "des"); loading still accepts every
#: version in ``COMPATIBLE_SCHEMAS`` and tolerates records that lack
#: later-added summary/diagnostic fields, so old caches keep hitting.
CACHE_SCHEMA = 2

#: record versions the loader accepts; records outside this set are
#: treated as cache misses, never errors.
COMPATIBLE_SCHEMAS = (1, 2)

#: version prefix of the *config hash* — deliberately decoupled from
#: ``CACHE_SCHEMA`` (bumping the record layout must not re-key every
#: cached run; bump this only when run *semantics* change).
HASH_SCHEMA = 1

#: how long a SQLite writer waits for another process's lock
TIMEOUT_S = 30.0

#: records per transaction when :func:`migrate` ingests a source
MIGRATE_BATCH = 256


# ----------------------------------------------------------------------
# Config identity
# ----------------------------------------------------------------------
#: the always-hashed ScenarioConfig fields — the paper's original
#: scenario surface, hashed since the first cache existed.  Together
#: with ``_HASH_NEUTRAL_DEFAULTS`` below this is the machine-readable
#: hash contract: every dataclass field must appear in exactly one of
#: the two tables.  ``repro.lint`` enforces that statically (rules
#: H201-H203), :func:`hash_participation` enforces it at runtime (the
#: campaign ``--dry-run`` prints the same view), so the static and
#: runtime pictures of "what forks a cache cell" can never drift.
CORE_HASH_FIELDS: Tuple[str, ...] = (
    "protocol",
    "n_nodes",
    "arena_w",
    "arena_h",
    "v_min",
    "v_max",
    "pause_time",
    "group_size",
    "max_range",
    "e_elec",
    "e_rx",
    "eps_amp",
    "alpha",
    "bitrate_bps",
    "loss_prob",
    "capture_threshold",
    "beacon_interval",
    "rate_kbps",
    "packet_bytes",
    "traffic_start",
    "sim_time",
    "availability_probe_interval",
    "seed",
)

#: fields added to ScenarioConfig *after* caches existed in the wild,
#: mapped to the behavior-neutral default they were introduced with.  At
#: that default the field is dropped from the hash payload (and patched
#: into stored records on load), so every pre-existing cache entry — and
#: every campaign hash — stays valid; only non-default values fork new
#: cache cells.
_HASH_NEUTRAL_DEFAULTS: Dict[str, object] = {
    "daemon": "distributed",
    "backend": "des",
    # scenario-model axes (PR 5): the paper's scenario is the default on
    # every axis, so default configs keep their pre-model-API hashes
    "placement": "uniform",
    "mobility": "waypoint",
    "membership": "static-random",
    "traffic": "cbr",
    "model_params": (),
    "daemon_k": 4,
    "density_ref_n": 0,
    # rounds-engine implementation (PR 6): bit-identical trajectories by
    # contract, so the axis never changes results — only "array" forks a
    # cell (useful to benchmark cache-cold, not to distinguish outputs)
    "engine": "object",
    # topology representation (PR 8): hash-neutral at "dense"; "sparse"
    # forks a cell because CSR edge discovery rounds near-coincident
    # pair distances differently than the dense matrix identity
    "topology": "dense",
    # multi-group multicast (PR 10): one group is the paper's scenario
    # and bit-identical to the pre-groups code by construction (extra
    # groups draw from their own substreams), so a single-group config
    # keeps its historical hash on every axis value combination below
    "group_count": 1,
    "group_size_model": "fixed",
    "overlap_model": "independent",
}


def hash_participation() -> Tuple[Tuple[str, ...], Dict[str, object]]:
    """The hash contract as ``(hashed fields, neutral field -> default)``.

    Derived from the dataclass itself and cross-checked against the
    literal :data:`CORE_HASH_FIELDS` table — the same table
    ``repro.lint`` reads statically — raising ``RuntimeError`` on any
    drift, so a runtime consumer (the campaign ``--dry-run`` plan) can
    never show a different participation picture than the linter.
    """
    field_names = tuple(f.name for f in dataclasses.fields(ScenarioConfig))
    hashed = tuple(
        name for name in field_names if name not in _HASH_NEUTRAL_DEFAULTS
    )
    if set(hashed) != set(CORE_HASH_FIELDS) or any(
        name not in field_names for name in _HASH_NEUTRAL_DEFAULTS
    ):
        raise RuntimeError(
            "hash contract drift: CORE_HASH_FIELDS/_HASH_NEUTRAL_DEFAULTS "
            "do not partition the ScenarioConfig fields — run "
            "`python -m repro.lint src/repro` for the field-level report"
        )
    return hashed, dict(_HASH_NEUTRAL_DEFAULTS)


def _hash_payload(config: ScenarioConfig) -> Dict[str, object]:
    payload = dataclasses.asdict(config)
    for name, default in _HASH_NEUTRAL_DEFAULTS.items():
        if payload.get(name) == default:
            del payload[name]
    # External scenario inputs (the trace file) join the identity by
    # *content*: editing the file must fork the cache key, not serve
    # stale results computed from the old trajectories.
    from repro.experiments.scenario_models import scenario_content_fingerprint

    fingerprint = scenario_content_fingerprint(config)
    if fingerprint is not None:
        payload["scenario_content"] = fingerprint
    return payload


def config_key(config: ScenarioConfig) -> str:
    """Stable content hash of a scenario config.

    Canonical JSON (sorted keys, exact float repr) of every dataclass
    field, prefixed with the cache schema version.  Two configs collide
    iff they are field-for-field identical, so the hash is a safe cache
    key across processes and sessions.  Later-added fields are dropped at
    their defaults (see ``_HASH_NEUTRAL_DEFAULTS``) so old caches keep
    hitting.
    """
    payload = json.dumps(
        _hash_payload(config), sort_keys=True, separators=(",", ":")
    )
    digest = hashlib.sha256(
        f"v{HASH_SCHEMA}:{payload}".encode("utf-8")
    ).hexdigest()
    return digest[:24]


def shard_of(config: ScenarioConfig, n_shards: int) -> int:
    """Deterministic shard assignment by config hash.

    Stable across machines and campaign compositions (it depends on the
    run's identity alone), so K hosts running ``--shard i/K`` into their
    own store files partition any campaign without coordination.
    """
    return int(config_key(config), 16) % n_shards


# ----------------------------------------------------------------------
# Persistent per-run records
# ----------------------------------------------------------------------
def record_from_result(result: object, elapsed_s: float = 0.0) -> dict:
    """JSON-safe record of one finished run (any backend)."""
    from repro.experiments.backends import backend_by_name

    backend = backend_by_name(getattr(result.config, "backend", "des"))
    return backend.record_from(result, elapsed_s=elapsed_s)


def result_from_record(record: dict) -> object:
    """Rebuild the result a record was made from (any backend, any era).

    Dispatches on the record's ``backend`` key (absent in v1 records,
    meaning DES) and tolerates records that lack later-added summary or
    diagnostic fields — a v1 cache written before those fields existed
    keeps loading unchanged.
    """
    from repro.experiments.backends import backend_by_name

    return backend_by_name(record.get("backend", "des")).result_from_record(
        record
    )


def checked_record(record: dict, config: ScenarioConfig) -> Optional[dict]:
    """Validate a raw record against the config it claims to describe.

    Returns the record (with its config section normalized) when it is a
    compatible-era, same-backend, field-for-field match; ``None``
    otherwise.  This is the identity gate :meth:`SqliteStore.load`
    applies, so a hand-moved record or a hash collision can never
    impersonate another run.
    """
    if record.get("schema") not in COMPATIBLE_SCHEMAS:
        return None
    if record.get("backend", "des") != config.backend:
        return None  # a foreign backend's record cannot impersonate
    stored = record.get("config")
    if not isinstance(stored, dict):
        return None
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    if not set(stored) <= known:
        return None  # a future era's record cannot impersonate
    # Records written before a hash-neutral field existed lack it; they
    # describe the default behavior by construction.  Rebuilding the
    # config normalizes JSON artifacts (model_params round-trips as
    # lists of lists) before the identity comparison.
    stored = {**_HASH_NEUTRAL_DEFAULTS, **stored}
    try:
        rebuilt = ScenarioConfig(**stored)
    except (TypeError, ValueError):
        return None  # unconstructible record (hand-edited)
    if rebuilt != config:
        return None  # hash collision or hand-edited record
    record["config"] = dataclasses.asdict(rebuilt)
    return record


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class SqliteStore:
    """Append-only SQLite store: one row per run record.

    * rows live in a single ``runs`` table with ``(key, schema)`` as the
      primary key — point lookup by config hash is an index probe;
    * hot columns (backend, protocol, seed, elapsed) are split out for
      SQL-side slicing while the full record round-trips losslessly in a
      JSON column;
    * WAL journaling + ``synchronous=NORMAL``: concurrent readers never
      block the writer, and a mid-write kill can never leave a torn row;
    * :meth:`put` commits its record at once, so an interrupted campaign
      loses at most its in-flight runs; bulk ingest goes through
      :meth:`put_many`, one transaction for the whole batch.

    Records are schema-versioned, and ``INSERT OR REPLACE`` on the key
    makes duplicate writes (racing invocations, a repeated merge)
    collapse to one row.  A small side table holds worker
    **heartbeats** for ``status``.  Every process that opens the file
    must run on one host (WAL's shared-memory index needs it).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(path, timeout=TIMEOUT_S)
        # Two processes opening a fresh file race to switch it to WAL;
        # the loser gets "database is locked" at once (the busy timeout
        # does not cover this lock), so retry within the same timeout.
        deadline = time.monotonic() + TIMEOUT_S
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
                time.sleep(0.01)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:  # one transaction for the schema
            self._conn.execute(
                """CREATE TABLE IF NOT EXISTS runs (
                       key TEXT NOT NULL,
                       schema INTEGER NOT NULL,
                       backend TEXT NOT NULL,
                       protocol TEXT,
                       seed INTEGER,
                       elapsed_s REAL,
                       record TEXT NOT NULL,
                       created_s REAL NOT NULL,
                       PRIMARY KEY (key, schema)
                   )"""
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS runs_by_backend "
                "ON runs (backend, protocol)"
            )
            self._conn.execute(
                """CREATE TABLE IF NOT EXISTS workers (
                       worker TEXT PRIMARY KEY,
                       seen_s REAL NOT NULL,
                       state TEXT NOT NULL
                   )"""
            )

    # -- records -------------------------------------------------------
    @staticmethod
    def _row(key: str, record: dict) -> Tuple:
        config = record.get("config") or {}
        return (
            key,
            int(record.get("schema", 0)),
            record.get("backend", "des"),
            config.get("protocol"),
            config.get("seed"),
            record.get("elapsed_s"),
            json.dumps(record, sort_keys=True),
            time.time(),
        )

    def put(self, key: str, record: dict) -> str:
        """Persist ``record`` under ``key``; returns its location.

        Idempotent per key: a concurrent duplicate write of the same run
        resolves to one record, which is what makes racing shards safe.
        """
        self.put_many([(key, record)])
        return f"{self.path}#{key}"

    def put_many(self, items: Iterable[Tuple[str, dict]]) -> int:
        """Append a batch in one transaction; returns the number written."""
        rows = [self._row(key, record) for key, record in items]
        if not rows:
            return 0
        with self._conn:
            self._conn.executemany(
                "INSERT OR REPLACE INTO runs "
                "(key, schema, backend, protocol, seed, elapsed_s, record, "
                "created_s) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                rows,
            )
        return len(rows)

    def store(self, config: ScenarioConfig, record: dict) -> str:
        """Persist a finished run's record, keyed by its config hash."""
        return self.put(config_key(config), record)

    def get(self, key: str) -> Optional[dict]:
        """The raw record stored under ``key``, or None (no validation)."""
        # newest *loadable* layout wins when several schema eras coexist:
        # a row written by some future schema must not shadow a record
        # this version can still read
        marks = ",".join("?" * len(COMPATIBLE_SCHEMAS))
        rows = self._conn.execute(
            f"SELECT record FROM runs WHERE key = ? ORDER BY "
            f"(schema IN ({marks})) DESC, schema DESC",
            (key, *COMPATIBLE_SCHEMAS),
        ).fetchall()
        for (raw,) in rows:
            try:
                return json.loads(raw)
            except ValueError:
                continue
        return None

    def load(self, config: ScenarioConfig) -> Optional[dict]:
        """The stored record for ``config``, or None.

        Unreadable/stale/foreign records are misses: the run is simply
        redone (and the record rewritten), so a corrupt store can never
        fail a campaign.
        """
        record = self.get(config_key(config))
        if record is None:
            return None
        return checked_record(record, config)

    def keys(self) -> List[str]:
        """Every record key present (unvalidated)."""
        return [
            key
            for (key,) in self._conn.execute(
                "SELECT DISTINCT key FROM runs"
            ).fetchall()
        ]

    def run_count(self) -> int:
        (count,) = self._conn.execute(
            "SELECT COUNT(DISTINCT key) FROM runs"
        ).fetchone()
        return int(count)

    def flush(self) -> None:
        """Make every write durable: a no-op, since each write commits."""

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- scheduler side channels --------------------------------------
    def heartbeat(self, worker: str, state: str = "running") -> None:
        """Record that ``worker`` is alive right now."""
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO workers (worker, seen_s, state) "
                "VALUES (?, ?, ?)",
                (worker, time.time(), state),
            )

    def heartbeats(self) -> Dict[str, dict]:
        """worker -> {"seen_s": epoch, "state": str} of known workers."""
        return {
            worker: {"seen_s": seen, "state": state}
            for worker, seen, state in self._conn.execute(
                "SELECT worker, seen_s, state FROM workers"
            ).fetchall()
        }


# ----------------------------------------------------------------------
# Store specs
# ----------------------------------------------------------------------
StoreSpec = Union[str, os.PathLike, SqliteStore]


def _store_path(spec: Union[str, os.PathLike]) -> str:
    """The SQLite file a store spec names, refusing retired spec forms.

    A spec is a path to a SQLite file.  A path that is an existing
    directory (a legacy JSON record dir) or that carries a ``json:`` /
    ``sqlite:`` prefix raises ``ValueError`` saying what to do instead.
    """
    path = os.fspath(spec)
    for prefix in ("json:", "sqlite:"):
        if path.startswith(prefix):
            raise ValueError(
                f"store spec {path!r}: the {prefix!r} prefix is gone; a "
                f"store is a SQLite file path, so drop the prefix (a JSON "
                f"record dir must first be `migrate`d into a .sqlite file)"
            )
    if os.path.isdir(path):
        dest = os.path.normpath(path) + ".sqlite"
        raise ValueError(
            f"store spec {path!r} is a directory: JSON record dirs are "
            f"read-only input now — run `python -m "
            f"repro.experiments.campaign migrate {path} {dest}` and pass "
            f"the .sqlite file"
        )
    return path


def open_store(spec: StoreSpec) -> SqliteStore:
    """Resolve a store spec into a live store.

    ``spec`` is a :class:`SqliteStore` (returned as is) or a path to a
    SQLite file, created on first use (see :func:`_store_path`).
    """
    if isinstance(spec, SqliteStore):
        return spec
    return SqliteStore(_store_path(spec))


def probe_store(spec: StoreSpec) -> Optional[SqliteStore]:
    """Open a store only if its file already exists.

    Dry runs probe the warm-cache state through this, so planning never
    creates database files as a side effect.
    """
    if isinstance(spec, SqliteStore):
        return spec
    path = _store_path(spec)
    return SqliteStore(path) if os.path.exists(path) else None


# ----------------------------------------------------------------------
# Migration
# ----------------------------------------------------------------------
def _json_dir_records(root: str) -> Iterator[Tuple[str, object]]:
    """``(key, parsed file or None)`` for every ``<hash>.json`` in a dir."""
    for name in sorted(os.listdir(root)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = None
        yield name[: -len(".json")], record


def _store_file_records(path: str) -> Iterator[Tuple[str, object]]:
    """``(key, parsed record or None)`` for every ``runs`` row of a store
    file, opened read-only: a missing path raises instead of creating an
    empty store, and the source file is never written."""
    uri = pathlib.Path(os.path.abspath(path)).as_uri() + "?mode=ro"
    conn = sqlite3.connect(uri, uri=True, timeout=TIMEOUT_S)
    try:
        for key, raw in conn.execute(
            "SELECT key, record FROM runs ORDER BY key, schema"
        ):
            try:
                record = json.loads(raw)
            except ValueError:
                record = None
            yield key, record
    finally:
        conn.close()


def migrate(
    src: str,
    store: SqliteStore,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[int, int]:
    """Ingest every record of ``src`` into ``store``.

    This is the one way records enter a store from elsewhere: merging a
    shard's store file, or ingesting a legacy v1/v2 ``<hash>.json``
    record dir.  ``src`` is either such a dir or an existing SQLite store
    file.  Records are copied **losslessly** under their original key
    (the config hash computed when the record was written — for a dir,
    the filename stem), each keeping its own schema version; heartbeats
    are not copied.  Rows or files that do not parse as records are
    skipped and counted, never fatal.  Re-ingesting a source changes
    nothing, because :meth:`SqliteStore.put_many` replaces by key.
    Returns ``(migrated, skipped)``.
    """
    records = _json_dir_records(src) if os.path.isdir(src) else _store_file_records(src)
    migrated = skipped = 0
    batch: List[Tuple[str, dict]] = []
    with contextlib.closing(records):  # an error mid-ingest still closes the source
        for key, record in records:
            if not isinstance(record, dict) or "schema" not in record:
                skipped += 1
                continue
            batch.append((key, record))
            if len(batch) >= MIGRATE_BATCH:
                migrated += store.put_many(batch)
                batch.clear()
                if progress:
                    progress(f"migrated {migrated} records...")
    migrated += store.put_many(batch)
    return migrated, skipped
