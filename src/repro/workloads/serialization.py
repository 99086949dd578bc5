"""Workload serialization: save/load labeled query workloads.

The paper reports spending 3.5 *days* generating and labelling its 125k
mixed queries (Section 5.5.2) — labels are the expensive artifact, so a
production pipeline caches them.  The format is a plain text file, one
query per line::

    # workload: forest-conjunctive
    <cardinality>\t<num_attributes>\t<num_predicates>\t<SQL>

Human-inspectable, diff-friendly, and round-trips exactly through the
package's SQL parser.
"""

from __future__ import annotations

from pathlib import Path

from repro.sql.parser import parse_query
from repro.workloads.spec import LabeledQuery, Workload

__all__ = ["save_workload", "load_workload", "canonical_query_text"]

_HEADER_PREFIX = "# workload: "


def canonical_query_text(query) -> str:
    """The canonical single-line SQL text of a query.

    This is the serialization format's per-query payload: stable across
    processes (the AST renders deterministically), free of separator
    characters, and round-trippable through the package's SQL parser.
    (The serving layer's estimate cache does not use it: it keys on the
    request's SQL text as received, so a hit skips parsing.)
    """
    sql = query.to_sql()
    if "\t" in sql or "\n" in sql:
        raise ValueError(f"query contains separator characters: {sql!r}")
    return sql


def save_workload(workload: Workload, path: str | Path) -> None:
    """Write a labeled workload to a text file (see module docs)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"{_HEADER_PREFIX}{workload.name}"]
    for item in workload:
        sql = canonical_query_text(item.query)
        lines.append(f"{item.cardinality}\t{item.num_attributes}\t"
                     f"{item.num_predicates}\t{sql}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_workload(path: str | Path) -> Workload:
    """Load a workload saved by :func:`save_workload`.

    Labels are taken from the file verbatim — relabel against live data
    (via the executor) if the data may have changed since saving.
    """
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith(_HEADER_PREFIX):
        raise ValueError(f"{path} is not a saved workload (missing header)")
    name = lines[0][len(_HEADER_PREFIX):]
    items: list[LabeledQuery] = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t", 3)
        if len(parts) != 4:
            raise ValueError(f"{path}:{number}: expected 4 tab-separated "
                             f"fields, got {len(parts)}")
        cardinality, num_attributes, num_predicates, sql = parts
        items.append(LabeledQuery(
            query=parse_query(sql),
            cardinality=int(cardinality),
            num_attributes=int(num_attributes),
            num_predicates=int(num_predicates),
        ))
    return Workload(items, name)
