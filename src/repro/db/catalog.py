"""The system catalog: table name -> table, case-insensitive."""

from __future__ import annotations

from repro.db.schema import TableSchema
from repro.db.stats import SpatialIndex
from repro.db.table import Table
from repro.errors import CatalogError

__all__ = ["Catalog", "CatalogView"]


class CatalogView:
    """The read surface of a catalog — tables by case-insensitive name,
    index definitions — and all a published MVCC version's catalog is;
    the live :class:`Catalog` adds the DDL."""

    def __init__(self, tables: dict, indexes: dict, spatial: dict):
        self._tables: dict[str, Table] = tables  # lowercased name -> Table
        self._indexes: dict[str, tuple[str, str]] = indexes  # index name -> (table, column)
        self._spatial: dict[str, tuple[str, str]] = spatial  # spatial index name -> (table, column)

    def index_table(self, name: str) -> str | None:
        """The table a named index (hash or spatial) is defined on, or None."""
        key = name.lower()
        if key in self._indexes:
            return self._indexes[key][0]
        if key in self._spatial:
            return self._spatial[key][0]
        return None

    def index_names(self) -> list[str]:
        """All hash-index names, sorted."""
        return sorted(self._indexes)

    def index_defs(self) -> list[tuple[str, str, str]]:
        """``(name, table, column)`` of every hash index, sorted by name."""
        return [(name, *target) for name, target in sorted(self._indexes.items())]

    def spatial_index_defs(self) -> list[tuple[str, str, str]]:
        """``(name, table, column)`` of every spatial index, sorted by name."""
        return [(name, *target) for name, target in sorted(self._spatial.items())]

    def table(self, name: str) -> Table:
        """Look up a table by case-insensitive name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        """All table names, sorted."""
        return sorted(t.name for t in self._tables.values())

    def stamp_of(self, names) -> list:
        """Per lower-cased table name its :attr:`Table.stamp`, ``None``
        for a name the catalog does not hold."""
        tables = self._tables
        return [None if (table := tables.get(name)) is None else table.stamp
                for name in names]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(self.table_names()) or 'empty'})"


class Catalog(CatalogView):
    """Holds all tables (and named indexes) of one database."""

    def __init__(self) -> None:
        super().__init__({}, {}, {})

    def create_index(self, name: str, table_name: str, column: str) -> None:
        """Create a named single-column hash index."""
        key = name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {name!r} already exists")
        table = self.table(table_name)
        table.create_index(column)
        self._indexes[key] = (table.name, column)

    def drop_index(self, name: str) -> None:
        """Drop a named index — hash or spatial (the table keeps its rows)."""
        key = name.lower()
        if key in self._spatial:
            table_name, column = self._spatial.pop(key)
            table = self.table(table_name)
            table.mutations += 1  # force MVCC to republish this table
            table.spatial.pop(column.lower(), None)
            return
        try:
            table_name, column = self._indexes.pop(key)
        except KeyError:
            raise CatalogError(f"no such index {name!r}") from None
        self.table(table_name).drop_index(column)

    def create_spatial_index(self, name: str, table_name: str, column: str) -> SpatialIndex:
        """Register a spatial index over one LONGFIELD column.

        The index is created unpacked; the executor recomputes the table's
        statistics (payload reads need an execution context), which packs
        the tree over the column's region-cell directory.
        """
        key = name.lower()
        if key in self._indexes or key in self._spatial:
            raise CatalogError(f"index {name!r} already exists")
        table = self.table(table_name)
        if table.spatial_index_on(column) is not None:
            raise CatalogError(
                f"table {table.name!r} already has a spatial index on {column!r}"
            )
        index = SpatialIndex(name, table, column)
        self._spatial[key] = (table.name, column)
        table.mutations += 1  # force MVCC to republish this table
        table.spatial[column.lower()] = index
        return index

    def create_table(self, schema: TableSchema) -> Table:
        """Create an empty table for the schema; rejects duplicates."""
        key = schema.table_name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.table_name!r} already exists")
        table = Table(schema)
        self._tables[key] = table
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and any indexes defined on it."""
        try:
            del self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table {name!r}") from None
        self._indexes = {
            idx: (t, c) for idx, (t, c) in self._indexes.items()
            if t.lower() != name.lower()
        }
        self._spatial = {
            idx: (t, c) for idx, (t, c) in self._spatial.items()
            if t.lower() != name.lower()
        }
