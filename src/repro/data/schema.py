"""Multi-table schemas with key/foreign-key relationships.

The paper's join experiments (JOB-light, Section 5) assume tables are
"joined following their key/foreign-key relationships" (Section 2.1.2).
A :class:`Schema` therefore records, besides the tables, the directed
foreign-key edges along which joins may happen, and can enumerate the
connected sub-schemata for which local models are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from repro.data.table import Table
from repro.graph import adjacency, is_connected

__all__ = ["ForeignKey", "Schema"]


@dataclass(frozen=True)
class ForeignKey:
    """A directed foreign-key edge ``child.child_column -> parent.parent_column``."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str

    def __str__(self) -> str:
        return (f"{self.child_table}.{self.child_column} -> "
                f"{self.parent_table}.{self.parent_column}")


class Schema:
    """A set of tables plus the foreign-key edges connecting them."""

    def __init__(self, tables: Iterable[Table],
                 foreign_keys: Iterable[ForeignKey] = ()) -> None:
        self._tables: dict[str, Table] = {}
        for table in tables:
            if table.name in self._tables:
                raise ValueError(f"duplicate table name {table.name!r}")
            self._tables[table.name] = table
        self._foreign_keys: list[ForeignKey] = []
        for fk in foreign_keys:
            self._validate_fk(fk)
            self._foreign_keys.append(fk)

    def _validate_fk(self, fk: ForeignKey) -> None:
        for table_name, column_name in (
            (fk.child_table, fk.child_column),
            (fk.parent_table, fk.parent_column),
        ):
            if table_name not in self._tables:
                raise KeyError(f"foreign key {fk} references unknown table "
                               f"{table_name!r}")
            if column_name not in self._tables[table_name]:
                raise KeyError(f"foreign key {fk} references unknown column "
                               f"{table_name}.{column_name}")

    @property
    def table_names(self) -> list[str]:
        """Table names in definition order."""
        return list(self._tables)

    @property
    def tables(self) -> list[Table]:
        """Tables in definition order."""
        return list(self._tables.values())

    @property
    def foreign_keys(self) -> list[ForeignKey]:
        """All foreign-key edges."""
        return list(self._foreign_keys)

    def table(self, name: str) -> Table:
        """Return the table called ``name`` (``KeyError`` if unknown)."""
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"schema has no table {name!r}; "
                           f"available: {self.table_names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def join_graph(self) -> dict[str, set[str]]:
        """Return the undirected join graph as adjacency sets: each table
        maps to the tables one FK edge away."""
        return adjacency(self._tables, ((fk.child_table, fk.parent_table)
                                        for fk in self._foreign_keys))

    def foreign_keys_between(self, tables: Iterable[str]) -> list[ForeignKey]:
        """Return the FK edges whose both endpoints lie within ``tables``."""
        table_set = set(tables)
        return [fk for fk in self._foreign_keys
                if fk.child_table in table_set and fk.parent_table in table_set]

    def is_connected_subschema(self, tables: Iterable[str]) -> bool:
        """True iff ``tables`` form a connected subgraph of the join graph.

        Local models are only built for connected sub-schemata; a cross
        product of unrelated tables is not a meaningful estimation target.
        """
        table_set = set(tables)
        if not table_set <= self._tables.keys():
            return False
        graph = self.join_graph()
        return is_connected({table: graph[table] & table_set
                             for table in table_set})

    def connected_subschemata(self, max_tables: int | None = None) -> list[tuple[str, ...]]:
        """Enumerate all connected sub-schemata, smallest first.

        The paper notes there are ``2^n - 1`` sub-schemata in general
        (Section 2.1.2); with FK-connectivity as a filter the number drops
        sharply.  ``max_tables`` caps the enumeration size.
        """
        names = self.table_names
        limit = max_tables if max_tables is not None else len(names)
        result: list[tuple[str, ...]] = []
        for size in range(1, limit + 1):
            for combo in combinations(names, size):
                if self.is_connected_subschema(combo):
                    result.append(combo)
        return result

    def check_referential_integrity(self) -> None:
        """Raise ``ValueError`` if any FK value lacks a matching parent key.

        Run by the data generators' tests to guarantee that join results
        are well-defined.
        """
        for fk in self._foreign_keys:
            child = self.table(fk.child_table).column(fk.child_column).values
            parent = self.table(fk.parent_table).column(fk.parent_column).values
            missing = ~np.isin(child, parent)
            if missing.any():
                raise ValueError(
                    f"foreign key {fk} violated for {int(missing.sum())} rows"
                )

    def __repr__(self) -> str:
        return (f"Schema(tables={self.table_names}, "
                f"foreign_keys={len(self._foreign_keys)})")
