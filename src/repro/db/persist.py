"""Database persistence: save a loaded database to disk and reopen it.

A saved database is a directory holding two files:

* ``device.img`` — the raw block-device contents (every long field);
* ``catalog.json`` — the checkpoint: schemas, rows, index definitions,
  registered long-field extents, and the device geometry.

Over a write-ahead log, ``wal.log`` is the checkpoint's redo log: every
write scope journals one :func:`commit_record`, and reopening with
``wal=True`` folds those since the checkpoint onto it (:func:`fold_records`).

This module owns the image format.  LONGFIELD cells are stored as
``{"$lf": [id, length]}`` references into the device image; transient
byte payloads (rare in stored tables) round-trip as base64.
``load_database`` rebuilds the buddy allocator by carving the recorded
extents back out of the arena, so the reopened database can keep
allocating.

User-defined functions are code, not data: the caller re-registers them
(``register_spatial_functions``) after loading, exactly as Starburst
reloaded its extensions at startup.
"""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path

from repro.db import database
from repro.db.schema import Column, TableSchema
from repro.db.types import SqlType
from repro.errors import DatabaseError
from repro.storage.device import BlockDevice
from repro.storage.lfm import LongField, LongFieldManager
from repro.storage.wal import WriteAheadLog

__all__ = ["save_database", "load_database", "export_catalog", "restore_catalog",
           "commit_record", "fold_records"]

_FORMAT_VERSION = 1
_JOURNAL_FILE = "wal.log"
DEFAULT_JOURNAL_CAPACITY = 4 << 20


def _find_wal(device) -> WriteAheadLog | None:
    """The WriteAheadLog in a device stack (cache → wal → raw), if any."""
    seen = 0
    while device is not None and seen < 8:
        if isinstance(device, WriteAheadLog):
            return device
        device = getattr(device, "device", None) or getattr(device, "inner", None)
        seen += 1
    return None


def _encode_cell(value):
    if isinstance(value, LongField):
        return {"$lf": [value.field_id, value.length]}
    if isinstance(value, bytes):
        return {"$bytes": base64.b64encode(value).decode("ascii")}
    return value


def _decode_cell(value):
    if isinstance(value, dict):
        if "$lf" in value:
            field_id, length = value["$lf"]
            return LongField(int(field_id), int(length))
        if "$bytes" in value:
            return base64.b64decode(value["$bytes"])
        raise DatabaseError(f"unknown encoded cell {sorted(value)}")
    return value


def _table_image(table) -> dict:
    return {
        "name": table.name,
        "columns": [[c.name, c.sql_type.value] for c in table.schema.columns],
        "rows": [[_encode_cell(v) for v in row] for row in table.scan()],
    }


#: the catalog-wide keys of an image: index definitions, statistics gathered
_ENTRIES = ("indexes", "spatial_indexes", "analyzed")


def _catalog_entries(catalog) -> dict:
    entries = {key: [{"name": n, "table": t, "column": c} for n, t, c in defs]
               for key, defs in (("indexes", catalog.index_defs()),
                                 ("spatial_indexes", catalog.spatial_index_defs()))
               if defs}
    if any(catalog.table(n).stats.spatial_enabled for n in catalog.table_names()):
        entries["analyzed"] = True
    return entries


def export_catalog(catalog) -> dict:
    """The catalog image: the one serialized form of a catalog, embedded
    in ``catalog.json``; ``catalog`` is live or a published version's."""
    tables = [catalog.table(name) for name in catalog.table_names()]
    return {"tables": [_table_image(t) for t in tables],
            **_catalog_entries(catalog)}


def commit_record(versions, catalog, lfm) -> dict:
    """One write scope's commit record, its storage commit's metadata: its
    edits to the image of the published version (whole images of tables it
    created, re-created or rewrote, rows it appended to others, tables it
    dropped, the catalog-wide entries if they moved) and, only if it
    changed it, the field table."""
    moved, dropped, fields = versions.changes(catalog, lfm)
    edits = {key: value for key, value in (
        ("tables", [_table_image(t) for t, rows in moved if rows is None]),
        ("rows", {t.name: [[_encode_cell(v) for v in row] for row in rows]
                  for t, rows in moved if rows}),
        ("dropped", dropped)) if value}
    entries = _catalog_entries(catalog)
    if entries != _catalog_entries(versions.latest.catalog):
        edits["entries"] = entries
    return {"catalog": edits, **(lfm.export_state() if fields else {})}


def fold_records(image: dict, metas) -> dict:
    """``image`` (``catalog.json``'s contents) with the commit records
    ``metas`` redone on it, oldest first: their catalog edits, and the
    newest field table one carries as ``image["lfm"]``."""
    out = dict(image)
    tables = {spec["name"].lower(): spec for spec in image["tables"]}
    for meta in metas:
        if "fields" in meta:
            out["lfm"] = {"next_id": meta["next_id"], "fields": meta["fields"]}
        edits = meta.get("catalog", {})
        for name in edits.get("dropped", ()):
            del tables[name.lower()]
        tables.update((spec["name"].lower(), spec) for spec in edits.get("tables", ()))
        for name, rows in edits.get("rows", {}).items():
            spec = tables[name.lower()]
            tables[name.lower()] = {**spec, "rows": spec["rows"] + rows}
        if "entries" in edits:
            out = {k: v for k, v in out.items() if k not in _ENTRIES} | edits["entries"]
    out["tables"] = sorted(tables.values(), key=lambda spec: spec["name"])
    return out


def restore_catalog(db: database.Database, image: dict) -> None:
    """Load a catalog image into an empty database and publish it.

    Indexes and statistics are derived state: they are re-derived through
    the SQL layer (the executor owns payload reads), not serialized.  The
    rows are published first, so under a write-ahead log that DDL journals
    only index and ANALYZE edits, which change nothing when folded again.
    """
    for spec in image["tables"]:
        columns = [Column(name, SqlType(type_name)) for name, type_name in spec["columns"]]
        table = db.catalog.create_table(TableSchema(spec["name"], columns))
        for row in spec["rows"]:
            table.insert([_decode_cell(v) for v in row])
    db.publish_snapshot()
    for kind, key in (("", "indexes"), ("spatial ", "spatial_indexes")):
        for spec in image.get(key, ()):
            db.execute(f"create {kind}index {spec['name']} "
                       f"on {spec['table']} ({spec['column']})")
    if image.get("analyzed"):
        db.execute("analyze")


def save_database(db: database.Database, path: str | Path) -> Path:
    """Persist a database (catalog + device) into a directory.

    Both files land atomically (temp file + rename), image first and
    ``catalog.json`` last — the catalog rename is the commit point.  A
    crash between the two leaves a new image beside an old catalog; that
    window is covered when the store is opened with ``wal=True``: the
    journal still holds every commit since the old catalog, and they are
    folded onto it.
    """
    if db.lfm is None:
        raise DatabaseError("only databases with a Long Field Manager can be saved")
    if getattr(db.lfm.device, "in_transaction", False):
        raise DatabaseError("cannot save a database inside an open transaction")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    wal = _find_wal(db.lfm.device)
    db.lfm.device.dump(path / "device.img")
    meta = {
        "version": _FORMAT_VERSION,
        "device": {
            "capacity": db.lfm.device.capacity,
            "page_size": db.lfm.device.page_size,
        },
        "lfm": db.lfm.export_state(),
        **export_catalog(db.catalog),
    }
    if wal is not None:
        # Persist the txn-id floor: on reload, recovery rejects any journal
        # record older than this even if the journal's own checkpoint
        # record was lost to a crash during reset_journal() below.
        meta["wal"] = {"next_txn_id": wal.next_txn_id}
    tmp = path / "catalog.json.tmp"
    tmp.write_text(json.dumps(meta))
    os.replace(tmp, path / "catalog.json")
    if wal is not None:
        # The catalog now checkpoints everything the journal guaranteed.
        wal.reset_journal()
    return path


def load_database(
    path: str | Path,
    in_memory: bool = False,
    wal: bool = False,
    journal_capacity: int = DEFAULT_JOURNAL_CAPACITY,
) -> database.Database:
    """Reopen a saved database.

    With ``in_memory`` the device image is copied into memory (the original
    files stay untouched); otherwise the device maps the image file
    directly and writes persist.

    With ``wal=True`` the device is wrapped in a
    :class:`~repro.storage.wal.WriteAheadLog` over a ``wal.log`` journal in
    the same directory.  Opening runs recovery: committed transactions the
    last process journaled but never checkpointed are replayed, and their
    commit records are folded onto the catalog (:func:`fold_records`).
    """
    path = Path(path)
    try:
        meta = json.loads((path / "catalog.json").read_text())
    except FileNotFoundError:
        raise DatabaseError(f"{path} does not contain a saved database") from None
    if meta.get("version") != _FORMAT_VERSION:
        raise DatabaseError(f"unsupported database format {meta.get('version')!r}")
    capacity = meta["device"]["capacity"]
    page_size = meta["device"]["page_size"]
    if in_memory:
        device = BlockDevice(capacity, page_size=page_size)
        image = (path / "device.img").read_bytes()
        # Bulk image restore is deliberately unaccounted device I/O.
        device._backing.buf[: len(image)] = image  # qblint: disable=no-raw-device-io
    else:
        device = BlockDevice(
            capacity, path=path / "device.img", page_size=page_size,
            preserve_contents=True,
        )
    if wal:
        journal_path = path / _JOURNAL_FILE
        if in_memory:
            image = journal_path.read_bytes() if journal_path.exists() else b""
            # Never truncate an existing journal: its tail may hold committed
            # transactions (mirrors the never-truncate rule of the
            # file-backed branch below).
            size = max(
                journal_capacity,
                -(-len(image) // page_size) * page_size,
            )
            journal = BlockDevice(size, page_size=page_size)
            # qblint: disable=no-raw-device-io
            journal._backing.buf[: len(image)] = image
        elif journal_path.exists():
            # An existing journal may hold unreplayed transactions: open it
            # at its own size, never truncate it.
            journal = BlockDevice(
                journal_path.stat().st_size, path=journal_path,
                page_size=page_size, preserve_contents=True,
            )
        else:
            journal = BlockDevice(
                journal_capacity, path=journal_path, page_size=page_size,
            )
        device = WriteAheadLog(
            device, journal, recover=True,
            next_txn_id=int(meta.get("wal", {}).get("next_txn_id", 1)),
        )
        meta = fold_records(meta, device.recovery.metas)
    db = database.Database(lfm=LongFieldManager.restore(device, meta["lfm"]))
    restore_catalog(db, meta)
    return db
