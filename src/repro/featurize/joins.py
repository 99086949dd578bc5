"""Featurization of queries containing joins (Section 2.1.2 + Section 4).

Two composition patterns adapt any single-table QFT to join queries:

* :class:`JoinQueryFeaturizer` — used by **local models**: fitted to one
  connected sub-schema, it concatenates a per-table QFT segment for every
  table in the sub-schema and routes each table's selection predicates to
  its segment.  Join-key columns are excluded from the feature space
  (queries never filter on them; joins follow key/foreign-key edges).
* :class:`TableSetVector` / :class:`GlobalJoinFeaturizer` — used by
  **global models**: a binary vector marks which tables a query joins
  ("for tables 1, 2, 3 and 4, the binary vector 1101 corresponds to a
  query where tables 1, 2, and 4 are joined"), concatenated with QFT
  segments for *all* tables of the schema.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.data.schema import Schema
from repro.data.table import Table
from repro.featurize.base import Featurizer
from repro.sql.ast import Query
from repro.sql.executor import per_table_selections

__all__ = ["JoinQueryFeaturizer", "TableSetVector", "GlobalJoinFeaturizer",
           "FeaturizerFactory", "join_key_columns", "predicate_columns"]

#: A factory building a fitted QFT for one table over given attributes.
FeaturizerFactory = Callable[[Table, Sequence[str]], Featurizer]


def join_key_columns(schema: Schema) -> dict[str, set[str]]:
    """Columns per table that participate in any foreign-key edge."""
    keys: dict[str, set[str]] = {name: set() for name in schema.table_names}
    for fk in schema.foreign_keys:
        keys[fk.child_table].add(fk.child_column)
        keys[fk.parent_table].add(fk.parent_column)
    return keys


def predicate_columns(schema: Schema, table_name: str) -> list[str]:
    """The featurizable (non-join-key) columns of ``table_name``."""
    keys = join_key_columns(schema)[table_name]
    table = schema.table(table_name)
    columns = [c for c in table.column_names if c not in keys]
    if not columns:
        raise ValueError(
            f"table {table_name!r} has no non-key columns to featurize"
        )
    return columns


class JoinQueryFeaturizer:
    """Concatenated per-table featurization for one fixed sub-schema."""

    def __init__(self, schema: Schema, tables: Sequence[str],
                 factory: FeaturizerFactory) -> None:
        if not tables:
            raise ValueError("sub-schema must contain at least one table")
        if not schema.is_connected_subschema(tables):
            raise ValueError(
                f"tables {tuple(tables)} do not form a connected sub-schema"
            )
        self._schema = schema
        self._tables = tuple(tables)
        self._featurizers: dict[str, Featurizer] = {
            name: factory(schema.table(name), predicate_columns(schema, name))
            for name in self._tables
        }

    @property
    def tables(self) -> tuple[str, ...]:
        """Tables of the sub-schema, in segment order."""
        return self._tables

    @property
    def feature_length(self) -> int:
        """Total feature dimension (sum of per-table segments)."""
        return sum(f.feature_length for f in self._featurizers.values())

    def featurizer_for(self, table: str) -> Featurizer:
        """The per-table featurizer of ``table``."""
        return self._featurizers[table]

    def featurize(self, query: Query) -> np.ndarray:
        """Encode a join query over exactly this sub-schema (a one-query
        :meth:`featurize_batch`)."""
        return self.featurize_batch([query])[0]

    def featurize_batch(self, queries: Iterable[Query]) -> np.ndarray:
        """Encode many queries into a ``(n, feature_length)`` matrix.

        Routes each table's selection column to that table's QFT batch
        pipeline, so the per-table compile → encode kernels see the whole
        batch at once; the segments are then stacked side by side.
        """
        queries = list(queries)
        if not queries:
            return np.empty((0, self.feature_length), dtype=np.float64)
        for query in queries:
            if set(query.tables) != set(self._tables):
                raise ValueError(
                    f"query joins {query.tables} but this featurizer covers "
                    f"{self._tables}"
                )
        selections = [per_table_selections(q, self._schema) for q in queries]
        segments = [
            self._featurizers[table].featurize_batch(
                [selection[table] for selection in selections])
            for table in self._tables
        ]
        return np.hstack(segments)

    def __repr__(self) -> str:
        return f"JoinQueryFeaturizer(tables={self._tables}, d={self.feature_length})"


class TableSetVector:
    """Binary table-presence vector for global models (Section 2.1.2)."""

    def __init__(self, schema: Schema) -> None:
        self._tables = tuple(schema.table_names)

    @property
    def feature_length(self) -> int:
        """One entry per table of the schema."""
        return len(self._tables)

    def featurize(self, query: Query) -> np.ndarray:
        """Encode which tables the query joins as a binary vector."""
        return self.featurize_batch([query])[0]

    def featurize_batch(self, queries: Iterable[Query]) -> np.ndarray:
        """Encode many queries' table bitmaps as an ``(n, m)`` matrix."""
        queries = list(queries)
        matrix = np.zeros((len(queries), len(self._tables)),
                          dtype=np.float64)
        for row, query in enumerate(queries):
            for table in query.tables:
                try:
                    matrix[row, self._tables.index(table)] = 1.0
                except ValueError:
                    raise KeyError(
                        f"query table {table!r} not in schema tables "
                        f"{self._tables}"
                    ) from None
        return matrix


class GlobalJoinFeaturizer:
    """Global-model featurization: table bitmap + all-table QFT segments.

    Tables absent from a query contribute their no-predicate encoding;
    the bitmap disambiguates absent tables from unfiltered joined ones.
    """

    def __init__(self, schema: Schema, factory: FeaturizerFactory) -> None:
        self._schema = schema
        self._table_vector = TableSetVector(schema)
        self._featurizers: dict[str, Featurizer] = {
            name: factory(schema.table(name), predicate_columns(schema, name))
            for name in schema.table_names
        }

    @property
    def feature_length(self) -> int:
        """Table bitmap plus the QFT segments of every schema table."""
        return (self._table_vector.feature_length
                + sum(f.feature_length for f in self._featurizers.values()))

    def featurize(self, query: Query) -> np.ndarray:
        """Encode a query over any sub-schema of the schema (a one-query
        :meth:`featurize_batch`)."""
        return self.featurize_batch([query])[0]

    def featurize_batch(self, queries: Iterable[Query]) -> np.ndarray:
        """Encode many queries into a ``(n, feature_length)`` matrix.

        Every schema table's QFT encodes the whole batch in one compile →
        encode pass (absent tables contribute their no-predicate column),
        and the segments are stacked after the table bitmap.
        """
        queries = list(queries)
        if not queries:
            return np.empty((0, self.feature_length), dtype=np.float64)
        selections = [per_table_selections(q, self._schema) for q in queries]
        segments = [self._table_vector.featurize_batch(queries)]
        for table, featurizer in self._featurizers.items():
            segments.append(featurizer.featurize_batch(
                [selection.get(table) for selection in selections]))
        return np.hstack(segments)
