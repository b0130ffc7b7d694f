"""The spatial user-defined functions of §3.2, registered into the engine.

These are the operators the paper implemented as Starburst SQL functions:

* ``intersection(r1, r2)`` — spatial intersection of two REGIONs
* ``regionUnion(r1, r2)`` / ``regionDifference(r1, r2)`` — §3.2 notes these
  "would be straightforward to implement"; they are
* ``contains(r1, r2)`` — is r1 a spatial superset of r2?
* ``extractVoxels(v, r)`` — the intensities of VOLUME v inside REGION r,
  returned as a DATA_REGION payload
* plus small helpers (``voxelCount``, ``runCount``, ``reencode``) the
  benchmarks and examples use

The type's constructor lives here too: :func:`store_region` stores a REGION
and tells the database what it stored while it still holds the object.

All arguments and REGION results are LONGFIELD values (handles into the LFM
or transient byte payloads).  ``extractVoxels`` is the early-filtering
workhorse: it reads *only* the byte ranges of the requested runs from the
volume's long field, so its disk cost scales with the answer, not with the
study (the central claim of §6).

A REGION argument is decoded through ``functions.decode_region``.  Every
long-field read still happens and is counted page for page (the device
stays unbuffered, like the paper's LFM); only the decode of a payload
already seen is skipped.  The memo maps payload bytes to the decoded
``Region`` (decoded values, not pages), so no entry can go stale.  It holds
at most 8 MiB, each entry its payload bytes plus 16 B per run, and starts
over when full.  The counters ``regions.decode_memo.hits`` and
``regions.decode_memo.misses`` count its lookups.  Loads, ANALYZE and
set-up decode with ``Region.from_bytes`` and never fill it.
"""

from __future__ import annotations

import numpy as np

from repro.db.database import Database
from repro.db.functions import NUMBER, ExecutionContext, FunctionSignature, decode_region
from repro.db.stats import region_cell
from repro.db.types import SqlType
from repro.errors import ExecutionError
from repro.regions import Region
from repro.storage.lfm import LongField
from repro.volumes import DataRegion, Volume

__all__ = [
    "register_spatial_functions",
    "spatial_signatures",
    "store_region",
    "SPATIAL_FUNCTION_NAMES",
]


def store_region(db: Database, region: Region, codec: str = "naive") -> LongField:
    """Store ``region`` as a new long field; returns the handle to INSERT.

    Inside ``db.transaction()`` its directory cell, built here from the
    object, waits in :attr:`Database.stored_cells` for that INSERT, which
    then reads nothing back.  Outside one, nothing is kept."""
    handle = db.lfm.create(region.to_bytes(codec))
    cells = db.stored_cells
    if cells is not None:
        cells[handle] = region_cell(region, handle.length)
    return handle


def _load_region(ctx: ExecutionContext, value) -> Region:
    region = decode_region(ctx.read_longfield(value))
    ctx.work.runs_processed += region.run_count
    return region


def _region_result(region: Region, codec: str = "naive") -> bytes:
    """REGION results are transient byte payloads (never written to disk)."""
    return region.to_bytes(codec)


def _set_operator(combine):
    """The SQL form of one two-REGION set operation of :class:`Region`."""
    def operator(ctx: ExecutionContext, r1, r2) -> bytes:
        result = combine(_load_region(ctx, r1), _load_region(ctx, r2))
        ctx.work.runs_processed += result.run_count
        return _region_result(result)
    return operator


def _sql_contains(ctx: ExecutionContext, r1, r2) -> bool:
    a = _load_region(ctx, r1)
    b = _load_region(ctx, r2)
    return a.contains(b)


def _sql_voxel_count(ctx: ExecutionContext, r) -> int:
    return _load_region(ctx, r).voxel_count


def _sql_run_count(ctx: ExecutionContext, r) -> int:
    return _load_region(ctx, r).run_count


def _sql_reencode(ctx: ExecutionContext, r, codec: str) -> bytes:
    return _load_region(ctx, r).to_bytes(codec)


def _sql_extract_voxels(ctx: ExecutionContext, volume_value, region_value) -> bytes:
    """EXTRACT_DATA(v, r): scattered read of exactly the runs' byte ranges."""
    region = _load_region(ctx, region_value)
    if isinstance(volume_value, bytes):
        # Transient volume payload: extract in memory.
        volume = Volume.from_bytes(volume_value)
        data_region = volume.extract(region)
        ctx.work.voxels_extracted += data_region.voxel_count
        return data_region.to_bytes()
    if not isinstance(volume_value, LongField):
        raise ExecutionError("extractVoxels expects a VOLUME long field")
    if ctx.lfm is None:
        raise ExecutionError("extractVoxels needs a Long Field Manager")
    # Read just the header page to learn geometry and value dtype.
    header_len = min(Volume.header_size(), volume_value.length)
    header = Volume.parse_header(ctx.lfm.read(volume_value, 0, header_len))
    header.grid.require_same(region.grid)
    if header.curve != region.curve:
        raise ExecutionError(
            "region and volume are linearized along different curves"
        )
    starts, stops = header.value_byte_ranges(region.intervals)
    payload = ctx.lfm.read_ranges(volume_value, starts, stops)
    ctx.work.longfield_bytes_read += len(payload)
    values = np.frombuffer(payload, dtype=header.dtype)
    ctx.work.voxels_extracted += int(values.size)
    return DataRegion(region, values).to_bytes()


def _sql_extract_all(ctx: ExecutionContext, volume_value) -> bytes:
    """The full-study fetch of Q1: one contiguous read of the whole VOLUME."""
    volume = Volume.from_bytes(ctx.read_longfield(volume_value))
    data_region = volume.extract_all()
    ctx.work.voxels_extracted += data_region.voxel_count
    ctx.work.runs_processed += 1
    return data_region.to_bytes()


def _load_data_region(ctx: ExecutionContext, value) -> DataRegion:
    return DataRegion.from_bytes(ctx.read_longfield(value))


def _sql_data_mean(ctx: ExecutionContext, dr) -> float | None:
    data = _load_data_region(ctx, dr)
    return None if not data.voxel_count else float(data.mean())


def _extreme(pick):
    """The SQL form of ``DataRegion.min`` / ``max`` (NULL when empty)."""
    def operator(ctx: ExecutionContext, dr):
        value = pick(_load_data_region(ctx, dr))
        return None if value is None else float(value)
    return operator


def _sql_data_voxels(ctx: ExecutionContext, dr) -> int:
    return _load_data_region(ctx, dr).voxel_count


def _sql_data_band(ctx: ExecutionContext, dr, low, high) -> bytes:
    """Attribute filter on an already extracted DATA_REGION (mixed queries
    over arbitrary, non-band-aligned intensity ranges, inside the DBMS)."""
    return _load_data_region(ctx, dr).band(low, high).to_bytes()


def _morphology(name: str):
    """The SQL form of ``repro.regions.morphology.<name>`` (``dilate``
    grows a REGION by a voxel radius: treatment-margin construction)."""
    def operator(ctx: ExecutionContext, r, radius: int) -> bytes:
        from repro.regions import morphology

        return _region_result(
            getattr(morphology, name)(_load_region(ctx, r), radius))
    return operator


def _sql_read_piece(ctx: ExecutionContext, value, offset: int, length: int) -> bytes:
    """Random access into a long field — the LFM primitive exposed to SQL.

    This is how slice viewers fetch one scanline-ordered slice of a raw
    study without pulling the whole volume off disk.
    """
    if isinstance(value, bytes):
        if offset < 0 or length < 0 or offset + length > len(value):
            raise ExecutionError("readPiece range outside payload")
        return value[offset:offset + length]
    if not isinstance(value, LongField):
        raise ExecutionError("readPiece expects a LONGFIELD value")
    if ctx.lfm is None:
        raise ExecutionError("readPiece needs a Long Field Manager")
    piece = ctx.lfm.read(value, offset, length)
    ctx.work.longfield_bytes_read += len(piece)
    return piece


#: LONGFIELD argument/result spec (REGION, VOLUME, and DATA_REGION payloads
#: all travel as LONGFIELD values)
_LF = frozenset({SqlType.LONGFIELD})
_INT = frozenset({SqlType.INTEGER})
_TEXT = frozenset({SqlType.TEXT})

#: the §3.2 operators: name -> (implementation, argument types, result type)
_OPERATORS = {
    "intersection": (_set_operator(Region.intersection), (_LF, _LF), SqlType.LONGFIELD),
    "regionUnion": (_set_operator(Region.union), (_LF, _LF), SqlType.LONGFIELD),
    "regionDifference": (_set_operator(Region.difference), (_LF, _LF), SqlType.LONGFIELD),
    "contains": (_sql_contains, (_LF, _LF), SqlType.BOOLEAN),
    "extractVoxels": (_sql_extract_voxels, (_LF, _LF), SqlType.LONGFIELD),
    "extractAll": (_sql_extract_all, (_LF,), SqlType.LONGFIELD),
    "voxelCount": (_sql_voxel_count, (_LF,), SqlType.INTEGER),
    "runCount": (_sql_run_count, (_LF,), SqlType.INTEGER),
    "reencode": (_sql_reencode, (_LF, _TEXT), SqlType.LONGFIELD),
    "dataMean": (_sql_data_mean, (_LF,), SqlType.REAL),
    "dataMin": (_extreme(DataRegion.min), (_LF,), SqlType.REAL),
    "dataMax": (_extreme(DataRegion.max), (_LF,), SqlType.REAL),
    "dataVoxels": (_sql_data_voxels, (_LF,), SqlType.INTEGER),
    "dataBand": (_sql_data_band, (_LF, NUMBER, NUMBER), SqlType.LONGFIELD),
    "readPiece": (_sql_read_piece, (_LF, _INT, _INT), SqlType.LONGFIELD),
    "regionDilate": (_morphology("dilate"), (_LF, _INT), SqlType.LONGFIELD),
    "regionErode": (_morphology("erode"), (_LF, _INT), SqlType.LONGFIELD),
    "regionMargin": (_morphology("margin"), (_LF, _INT), SqlType.LONGFIELD),
}

SPATIAL_FUNCTION_NAMES = tuple(_OPERATORS)


def spatial_signatures() -> dict[str, FunctionSignature]:
    """Declared signatures of the §3.2 operators, for the semantic analyzer.

    With these on file, a query that hands ``voxelCount`` a patient name or
    calls ``extractVoxels`` with one argument is rejected before any long
    field is opened.
    """
    return {
        name: FunctionSignature(name, len(params), len(params), params, returns)
        for name, (_, params, returns) in _OPERATORS.items()
    }


def register_spatial_functions(db: Database) -> None:
    """Install the §3.2 operators (with declared signatures) into a database."""
    signatures = spatial_signatures()
    for name, (implementation, _, _) in _OPERATORS.items():
        db.register_function(name, implementation, signature=signatures[name])
