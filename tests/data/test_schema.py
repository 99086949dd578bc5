"""Tests for repro.data.schema."""

import numpy as np
import pytest

from repro.data.schema import ForeignKey, Schema
from repro.data.table import Table


def make_star_schema() -> Schema:
    hub = Table("hub", {"id": np.asarray([1.0, 2.0, 3.0])})
    left = Table("left", {"hub_id": np.asarray([1.0, 1.0, 2.0]),
                          "v": np.asarray([7.0, 8.0, 9.0])})
    right = Table("right", {"hub_id": np.asarray([3.0, 3.0]),
                            "w": np.asarray([1.0, 2.0])})
    return Schema(
        [hub, left, right],
        [ForeignKey("left", "hub_id", "hub", "id"),
         ForeignKey("right", "hub_id", "hub", "id")],
    )


def test_table_lookup():
    schema = make_star_schema()
    assert schema.table("hub").row_count == 3
    assert "left" in schema
    with pytest.raises(KeyError, match="available"):
        schema.table("nope")


def test_rejects_duplicate_tables():
    table = Table("t", {"a": np.asarray([1.0])})
    with pytest.raises(ValueError, match="duplicate"):
        Schema([table, Table("t", {"b": np.asarray([1.0])})])


def test_rejects_fk_to_unknown_table():
    table = Table("t", {"a": np.asarray([1.0])})
    with pytest.raises(KeyError, match="unknown table"):
        Schema([table], [ForeignKey("t", "a", "ghost", "id")])


def test_rejects_fk_to_unknown_column():
    table = Table("t", {"a": np.asarray([1.0])})
    with pytest.raises(KeyError, match="unknown column"):
        Schema([table], [ForeignKey("t", "ghost", "t", "a")])


def test_join_graph_edges():
    graph = make_star_schema().join_graph()
    assert graph == {"hub": {"left", "right"}, "left": {"hub"},
                     "right": {"hub"}}


def test_connected_subschema_detection():
    schema = make_star_schema()
    assert schema.is_connected_subschema(["hub"])
    assert schema.is_connected_subschema(["hub", "left"])
    assert schema.is_connected_subschema(["hub", "left", "right"])
    assert not schema.is_connected_subschema(["left", "right"])
    assert not schema.is_connected_subschema([])


def test_connected_subschemata_enumeration():
    subschemata = make_star_schema().connected_subschemata()
    # hub, left, right, hub+left, hub+right, hub+left+right.
    assert len(subschemata) == 6
    assert ("hub", "left", "right") in subschemata


def test_connected_subschemata_respects_max_tables():
    subschemata = make_star_schema().connected_subschemata(max_tables=1)
    assert subschemata == [("hub",), ("left",), ("right",)]


def test_referential_integrity_passes():
    make_star_schema().check_referential_integrity()


def test_referential_integrity_detects_orphans():
    hub = Table("hub", {"id": np.asarray([1.0])})
    child = Table("child", {"hub_id": np.asarray([1.0, 99.0])})
    schema = Schema([hub, child], [ForeignKey("child", "hub_id", "hub", "id")])
    with pytest.raises(ValueError, match="violated for 1 rows"):
        schema.check_referential_integrity()


def test_foreign_keys_between():
    schema = make_star_schema()
    fks = schema.foreign_keys_between(["hub", "left"])
    assert len(fks) == 1
    assert fks[0].child_table == "left"
