"""Tests for the MSCN model and its set-input builder."""

import numpy as np
import pytest

from repro.models.mscn import MSCNInputBuilder, MSCNModel, SetBatch
from repro.sql.parser import parse_query
from tests.featurize import reference


class TestSetBatch:
    def test_padding_and_mask(self):
        rows = [[np.asarray([1.0, 2.0])],
                [np.asarray([3.0, 4.0]), np.asarray([5.0, 6.0])]]
        batch = SetBatch(rows, dim=2)
        assert batch.data.shape == (2, 2, 2)
        np.testing.assert_array_equal(batch.mask[:, :, 0],
                                      [[1, 0], [1, 1]])

    def test_empty_set_keeps_one_masked_zero(self):
        batch = SetBatch([[]], dim=3)
        assert batch.mask[0, 0, 0] == 1.0
        np.testing.assert_array_equal(batch.data[0, 0], np.zeros(3))

    def test_take_subsets_rows(self):
        rows = [[np.ones(2)], [np.full(2, 2.0)], [np.full(2, 3.0)]]
        batch = SetBatch(rows, dim=2)
        sub = batch.take(np.asarray([2, 0]))
        assert sub.data[0, 0, 0] == 3.0
        assert sub.data[1, 0, 0] == 1.0


class TestInputBuilder:
    def test_invalid_mode_rejected(self, imdb_schema):
        with pytest.raises(ValueError, match="mode"):
            MSCNInputBuilder(imdb_schema, mode="bogus")

    def test_single_table_wrapped_in_schema(self, small_forest):
        builder = MSCNInputBuilder(small_forest, mode="basic")
        assert builder.table_dim == 1

    def test_basic_mode_one_row_per_predicate(self, imdb_schema):
        builder = MSCNInputBuilder(imdb_schema, mode="basic")
        query = parse_query(
            "SELECT count(*) FROM title, cast_info "
            "WHERE cast_info.movie_id = title.id "
            "AND title.kind_id = 1 AND title.production_year > 2000 "
            "AND cast_info.role_id <= 5")
        tables, joins, preds = builder.build([query])
        assert tables.mask[0].sum() == 2  # two table one-hots
        assert joins.mask[0].sum() == 1  # one join edge
        assert preds.mask[0].sum() == 3  # three predicates

    def test_qft_mode_one_row_per_attribute(self, imdb_schema):
        builder = MSCNInputBuilder(imdb_schema, mode="qft", max_partitions=8)
        query = parse_query(
            "SELECT count(*) FROM title, cast_info "
            "WHERE cast_info.movie_id = title.id "
            "AND title.production_year > 2000 AND title.production_year < 2010 "
            "AND cast_info.role_id <= 5")
        _, _, preds = builder.build([query])
        # Two predicates on production_year collapse into one set element.
        assert preds.mask[0].sum() == 2

    def test_join_one_hot_matches_schema_edge(self, imdb_schema):
        builder = MSCNInputBuilder(imdb_schema, mode="basic")
        query = parse_query(
            "SELECT count(*) FROM title, movie_keyword "
            "WHERE movie_keyword.movie_id = title.id")
        _, joins, _ = builder.build([query])
        edge_index = [i for i, fk in enumerate(imdb_schema.foreign_keys)
                      if fk.child_table == "movie_keyword"][0]
        assert joins.data[0, 0, edge_index] == 1.0

    def test_no_predicate_query(self, imdb_schema):
        builder = MSCNInputBuilder(imdb_schema, mode="basic")
        query = parse_query(
            "SELECT count(*) FROM title, cast_info "
            "WHERE cast_info.movie_id = title.id")
        _, _, preds = builder.build([query])
        # Empty predicate set -> a single masked zero element.
        assert preds.mask[0].sum() == 1
        np.testing.assert_array_equal(preds.data[0, 0],
                                      np.zeros(builder.predicate_dim))

    def test_qft_batch_rows_match_scalar(self, imdb_schema, joblight_bench):
        builder = MSCNInputBuilder(imdb_schema, mode="qft", max_partitions=8)
        queries = joblight_bench.queries
        batched = builder._predicate_rows_batch(queries)
        for query, rows in zip(queries, batched):
            expected = reference.mscn_qft_rows(builder, query)
            assert len(rows) == len(expected)
            for got, want in zip(rows, expected):
                np.testing.assert_array_equal(got, want)


class TestMSCNModel:
    def _train(self, schema, workload, mode="basic", epochs=6):
        builder = MSCNInputBuilder(schema, mode=mode, max_partitions=8)
        model = MSCNModel(builder, hidden=16, epochs=epochs)
        model.fit(workload.queries, workload.cardinalities)
        return model

    def test_learns_better_than_constant(self, imdb_schema, joblight_bench):
        model = self._train(imdb_schema, joblight_bench, epochs=40)
        pred = model.predict(joblight_bench.queries)
        truth = joblight_bench.cardinalities
        log_err = np.abs(np.log(pred) - np.log(truth)).mean()
        const = np.exp(np.log(truth).mean())
        const_err = np.abs(np.log(const) - np.log(truth)).mean()
        assert log_err < const_err

    def test_predictions_clamped_to_one(self, imdb_schema, joblight_bench):
        model = self._train(imdb_schema, joblight_bench, epochs=2)
        assert (model.predict(joblight_bench.queries) >= 1.0).all()

    def test_predict_before_fit_rejected(self, imdb_schema):
        builder = MSCNInputBuilder(imdb_schema, mode="basic")
        model = MSCNModel(builder, hidden=8)
        with pytest.raises(RuntimeError, match="fitted"):
            model.predict([])

    def test_fit_validates_alignment(self, imdb_schema, joblight_bench):
        builder = MSCNInputBuilder(imdb_schema, mode="basic")
        model = MSCNModel(builder, hidden=8, epochs=1)
        with pytest.raises(ValueError, match="align"):
            model.fit(joblight_bench.queries, np.ones(3))
        with pytest.raises(ValueError, match="non-empty"):
            model.fit([], np.empty(0))

    def test_deterministic_in_seed(self, imdb_schema, joblight_bench):
        a = self._train(imdb_schema, joblight_bench, epochs=2)
        b = self._train(imdb_schema, joblight_bench, epochs=2)
        np.testing.assert_array_equal(a.predict(joblight_bench.queries),
                                      b.predict(joblight_bench.queries))

    def test_memory_bytes_counts_params(self, imdb_schema):
        builder = MSCNInputBuilder(imdb_schema, mode="basic")
        model = MSCNModel(builder, hidden=16)
        assert model.memory_bytes() > 0
