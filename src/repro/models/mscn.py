"""Multi-Set Convolutional Network (MSCN), from scratch (Section 2.2.1/4.2).

MSCN (Kipf et al., CIDR 2019) is the paper's representative *global*
model.  A query is featurized into three **sets** — tables, joins, and
predicates — each set element is passed through a small MLP, the per-set
outputs are average-pooled, concatenated, and fed through an output MLP
with a sigmoid over the min-max-normalised log cardinality.

:class:`MSCNInputBuilder` produces the padded set tensors in two modes:

* ``mode="basic"`` — the original per-predicate featurization
  (attribute one-hot ++ operator bits ++ normalised literal); this is the
  paper's *MSCN w/o mods*.
* ``mode="qft"`` — the paper's Section 4.2 modification: all predicates
  referencing the same attribute are featurized into **one** per-attribute
  vector with Universal Conjunction / Limited Disjunction Encoding,
  labelled by the attribute's one-hot id; this is *MSCN + conj*.

:class:`MSCNModel` implements forward and backward passes (masked
pooling included) in numpy with Adam.
"""

from __future__ import annotations

import numpy as np

from repro import config, obs
from repro.data.schema import Schema
from repro.data.table import Table
from repro.featurize.batch import (
    BatchBuilder,
    PredicateBatch,
    ragged_positions,
)
from repro.featurize.disjunction import DisjunctionEncoding
from repro.featurize.joins import predicate_columns
from repro.sql.ast import Op, Query, to_compound_form
from repro.sql.executor import per_table_selections

__all__ = ["MSCNInputBuilder", "MSCNModel", "SetBatch"]

#: Operator -> (=, >, <) bits for the basic per-predicate featurization.
_OP_BITS = {
    Op.EQ: (1.0, 0.0, 0.0),
    Op.GT: (0.0, 1.0, 0.0),
    Op.LT: (0.0, 0.0, 1.0),
    Op.GE: (1.0, 1.0, 0.0),
    Op.LE: (1.0, 0.0, 1.0),
    Op.NE: (0.0, 1.0, 1.0),
}


class SetBatch:
    """Padded tensors of one set type: ``data (B, S, D)``, ``mask (B, S, 1)``."""

    def __init__(self, elements: list[list[np.ndarray]], dim: int) -> None:
        batch = len(elements)
        width = max((len(e) for e in elements), default=1)
        width = max(width, 1)
        self.data = np.zeros((batch, width, dim), dtype=np.float64)
        self.mask = np.zeros((batch, width, 1), dtype=np.float64)
        for i, rows in enumerate(elements):
            if not rows:
                # Empty sets keep one zero element with an active mask so
                # pooling stays well-defined (original MSCN does the same).
                self.mask[i, 0, 0] = 1.0
                continue
            for j, row in enumerate(rows):
                self.data[i, j] = row
                self.mask[i, j, 0] = 1.0

    def take(self, idx: np.ndarray) -> "SetBatch":
        """Row-subset view used for mini-batching."""
        out = object.__new__(SetBatch)
        out.data = self.data[idx]
        out.mask = self.mask[idx]
        return out


def _schema_of(data: Table | Schema) -> Schema:
    if isinstance(data, Schema):
        return data
    return Schema([data])


class MSCNInputBuilder:
    """Builds MSCN's three set featurizations for queries over a schema."""

    def __init__(self, data: Table | Schema, mode: str = "basic",
                 max_partitions: int = config.DEFAULT_PARTITIONS,
                 attr_selectivity: bool = True) -> None:
        if mode not in ("basic", "range", "qft"):
            raise ValueError(
                f"mode must be 'basic', 'range' or 'qft', got {mode!r}"
            )
        self._schema = _schema_of(data)
        self._mode = mode
        self._tables = tuple(self._schema.table_names)
        self._joins = tuple(self._schema.foreign_keys)

        # Attribute universe: every featurizable (table, column) pair.
        self._attributes: list[tuple[str, str]] = []
        self._featurizers: dict[str, DisjunctionEncoding] = {}
        for table_name in self._tables:
            columns = predicate_columns(self._schema, table_name)
            for column in columns:
                self._attributes.append((table_name, column))
            if mode == "qft":
                self._featurizers[table_name] = DisjunctionEncoding(
                    self._schema.table(table_name), columns,
                    max_partitions=max_partitions,
                    attr_selectivity=attr_selectivity,
                )
        self._attr_index = {pair: i for i, pair in enumerate(self._attributes)}

        if mode == "qft":
            self._segment_width = max(
                feat.attribute_slices()[attr].stop - feat.attribute_slices()[attr].start
                for feat in self._featurizers.values()
                for attr in feat.attributes
            )
        elif mode == "range":
            self._segment_width = 2  # normalised [lo, hi]
        else:
            self._segment_width = 4  # op bits + literal

    @property
    def table_dim(self) -> int:
        """Element width of the table set (one-hot over tables)."""
        return len(self._tables)

    @property
    def join_dim(self) -> int:
        """Element width of the join set (one-hot over FK edges)."""
        return max(len(self._joins), 1)

    @property
    def predicate_dim(self) -> int:
        """Element width of the predicate set (attr one-hot ++ payload)."""
        return len(self._attributes) + self._segment_width

    def _join_onehot(self, query: Query) -> list[np.ndarray]:
        rows = []
        for join in query.joins:
            vector = np.zeros(self.join_dim, dtype=np.float64)
            for i, fk in enumerate(self._joins):
                same = (fk.child_table == join.left_table
                        and fk.child_column == join.left_column
                        and fk.parent_table == join.right_table
                        and fk.parent_column == join.right_column)
                flipped = (fk.child_table == join.right_table
                           and fk.child_column == join.right_column
                           and fk.parent_table == join.left_table
                           and fk.parent_column == join.left_column)
                if same or flipped:
                    vector[i] = 1.0
                    break
            else:
                raise KeyError(f"join {join} does not match any schema FK")
            rows.append(vector)
        return rows

    def _predicate_rows(self, query: Query) -> list[np.ndarray]:
        """Basic- or range-mode set rows of one query (qft mode encodes
        through :meth:`_predicate_rows_batch`)."""
        selections = per_table_selections(query, self._schema)
        rows: list[np.ndarray] = []
        n_attrs = len(self._attributes)
        for table_name in query.tables:
            expr = selections.get(table_name)
            if expr is None:
                continue
            if self._mode == "basic":
                compound = to_compound_form(expr)
                table = self._schema.table(table_name)
                for attr, branches in compound.items():
                    name = attr.partition(".")[2] if "." in attr else attr
                    stats = table.column(name).stats
                    for branch in branches:
                        for pred in branch:
                            vector = np.zeros(self.predicate_dim)
                            vector[self._attr_index[(table_name, name)]] = 1.0
                            vector[n_attrs:n_attrs + 3] = _OP_BITS[pred.op]
                            vector[n_attrs + 3] = stats.normalize(pred.value)
                            rows.append(vector)
            else:
                from repro.featurize.selectivity import fold_conjunction

                compound = to_compound_form(expr)
                table = self._schema.table(table_name)
                for attr, branches in compound.items():
                    name = attr.partition(".")[2] if "." in attr else attr
                    stats = table.column(name).stats
                    # One normalised closed range per attribute (branches
                    # beyond the first cannot be represented — Range
                    # Predicate Encoding's information loss).
                    interval = fold_conjunction(branches[0], stats)
                    vector = np.zeros(self.predicate_dim)
                    vector[self._attr_index[(table_name, name)]] = 1.0
                    if interval.is_empty:
                        vector[n_attrs], vector[n_attrs + 1] = 1.0, 0.0
                    else:
                        vector[n_attrs] = stats.normalize(interval.lo)
                        vector[n_attrs + 1] = stats.normalize(interval.hi)
                    rows.append(vector)
        return rows

    def _predicate_rows_batch(self, queries: list[Query]
                              ) -> list[list[np.ndarray]]:
        """qft-mode predicate rows via the compile → encode kernel.

        Compiles every query's per-table compound predicates into one
        :class:`PredicateBatch` per table and encodes all attribute
        segments with the vectorized Algorithm 1/2 kernel.  Rows are
        sorted by (table rank in the query, compile position), so each
        query's set elements follow its tables in FROM order and each
        table's attributes in ``to_compound_form`` order — the masked
        average pool sums floats in element order, so row order is part
        of the bitwise contract.
        """
        selections = [per_table_selections(q, self._schema) for q in queries]
        n_attrs = len(self._attributes)
        # Per query: (table_rank, compile_position, row) sort keys.
        collected: list[list[tuple[int, int, np.ndarray]]] = [
            [] for _ in queries
        ]
        for table_name in self._tables:
            featurizer = self._featurizers[table_name]
            query_ids = [i for i, selection in enumerate(selections)
                         if table_name in queries[i].tables
                         and selection.get(table_name) is not None]
            if not query_ids:
                continue
            batch, positions = self._compile_table(
                featurizer, [selections[i][table_name] for i in query_ids])
            entries, widths = featurizer._compiled_attribute_segments(batch)
            onehot_ids = np.asarray(
                [self._attr_index[(table_name, a)]
                 for a in featurizer.attributes],
                dtype=np.int64)[batch.segment_attr]
            n_segments = widths.size
            rows = np.zeros((n_segments, self.predicate_dim),
                            dtype=np.float64)
            rows[np.arange(n_segments), onehot_ids] = 1.0
            # Each segment's run (partitions, then the selectivity
            # appendix) starts right after the one-hot block.
            starts = np.arange(n_segments) * self.predicate_dim + n_attrs
            rows.reshape(-1)[ragged_positions(starts, widths)] = entries
            for g in range(n_segments):
                query_id = query_ids[batch.segment_query[g]]
                rank = queries[query_id].tables.index(table_name)
                collected[query_id].append((rank, positions[g], rows[g]))
        return [
            [row for _, _, row in sorted(per_query, key=lambda t: t[:2])]
            for per_query in collected
        ]

    @staticmethod
    def _compile_table(featurizer: DisjunctionEncoding, exprs: list
                       ) -> tuple[PredicateBatch, list[int]]:
        """Compile WHERE expressions; return the batch and set positions.

        Set rows follow each query's ``to_compound_form`` order, not the
        feature-space order the grouped batch uses, so each segment's
        position is the rank of its attribute's first compound entry
        among its query's entries.  Entries that spell one attribute
        differently share a segment, their branches joined rank by rank.
        """
        attr_ids = {name: i for i, name in
                    enumerate(featurizer.attributes)}
        builder = BatchBuilder(featurizer.attributes)
        positions: list[int] = []
        for qi, expr in enumerate(exprs):
            by_attr: dict[int, tuple[int, list[list]]] = {}
            for rank, (attr, branches) in enumerate(
                    to_compound_form(expr).items()):
                name = attr.partition(".")[2] if "." in attr else attr
                _, joined = by_attr.setdefault(attr_ids[name], (rank, []))
                for bi, branch in enumerate(branches):
                    if bi == len(joined):
                        joined.append([])
                    joined[bi].extend(branch)
            ordered = sorted(by_attr.items())
            builder.add_query(qi, [(attr_id, joined)
                                   for attr_id, (_, joined) in ordered])
            positions += [rank for _, (rank, _) in ordered]
        return builder.build(len(exprs)), positions

    def build(self, queries: list[Query]) -> tuple[SetBatch, SetBatch, SetBatch]:
        """Build the (tables, joins, predicates) set batches for ``queries``."""
        table_rows = []
        join_rows = []
        for query in queries:
            onehots = []
            for table in query.tables:
                vector = np.zeros(self.table_dim, dtype=np.float64)
                vector[self._tables.index(table)] = 1.0
                onehots.append(vector)
            table_rows.append(onehots)
            join_rows.append(self._join_onehot(query))
        if self._mode == "qft":
            pred_rows = self._predicate_rows_batch(queries)
        else:
            pred_rows = [self._predicate_rows(q) for q in queries]
        return (
            SetBatch(table_rows, self.table_dim),
            SetBatch(join_rows, self.join_dim),
            SetBatch(pred_rows, self.predicate_dim),
        )


class _SetMLP:
    """Two-layer ReLU MLP applied element-wise to a set, with Adam state."""

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator) -> None:
        self.W1 = rng.normal(0.0, np.sqrt(2.0 / in_dim), (in_dim, hidden))
        self.b1 = np.zeros(hidden)
        self.W2 = rng.normal(0.0, np.sqrt(2.0 / hidden), (hidden, hidden))
        self.b2 = np.zeros(hidden)

    def params(self) -> list[np.ndarray]:
        return [self.W1, self.b1, self.W2, self.b2]

    def forward(self, batch: SetBatch) -> tuple[np.ndarray, dict]:
        h1 = np.maximum(batch.data @ self.W1 + self.b1, 0.0)
        h2 = np.maximum(h1 @ self.W2 + self.b2, 0.0)
        counts = np.maximum(batch.mask.sum(axis=1), 1.0)  # (B, 1)
        pooled = (h2 * batch.mask).sum(axis=1) / counts
        cache = {"x": batch.data, "mask": batch.mask, "h1": h1, "h2": h2,
                 "counts": counts}
        return pooled, cache

    def backward(self, d_pooled: np.ndarray, cache: dict) -> list[np.ndarray]:
        mask, counts = cache["mask"], cache["counts"]
        d_h2 = (d_pooled[:, None, :] / counts[:, None, :]) * mask
        d_h2 = d_h2 * (cache["h2"] > 0.0)
        h1_flat = cache["h1"].reshape(-1, self.W2.shape[0])
        d_h2_flat = d_h2.reshape(-1, self.W2.shape[1])
        dW2 = h1_flat.T @ d_h2_flat
        db2 = d_h2_flat.sum(axis=0)
        d_h1 = (d_h2 @ self.W2.T) * (cache["h1"] > 0.0)
        x_flat = cache["x"].reshape(-1, self.W1.shape[0])
        d_h1_flat = d_h1.reshape(-1, self.W1.shape[1])
        dW1 = x_flat.T @ d_h1_flat
        db1 = d_h1_flat.sum(axis=0)
        return [dW1, db1, dW2, db2]


class MSCNModel:
    """The full MSCN: three set MLPs, pooling, and an output MLP."""

    def __init__(self, builder: MSCNInputBuilder, hidden: int = 64,
                 epochs: int = 40, batch_size: int = 64,
                 learning_rate: float = 1e-3,
                 random_state: int = config.DEFAULT_SEED) -> None:
        self._builder = builder
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.random_state = random_state
        rng = np.random.default_rng(random_state)
        self._table_mlp = _SetMLP(builder.table_dim, hidden, rng)
        self._join_mlp = _SetMLP(builder.join_dim, hidden, rng)
        self._pred_mlp = _SetMLP(builder.predicate_dim, hidden, rng)
        self.W3 = rng.normal(0.0, np.sqrt(2.0 / (3 * hidden)), (3 * hidden, hidden))
        self.b3 = np.zeros(hidden)
        self.W4 = rng.normal(0.0, np.sqrt(2.0 / hidden), (hidden, 1))
        self.b4 = np.zeros(1)
        self._label_min = 0.0
        self._label_max = 1.0
        self._fitted = False

    # ------------------------------------------------------------------

    def _all_params(self) -> list[np.ndarray]:
        return (self._table_mlp.params() + self._join_mlp.params()
                + self._pred_mlp.params() + [self.W3, self.b3, self.W4, self.b4])

    def _forward(self, sets: tuple[SetBatch, SetBatch, SetBatch]
                 ) -> tuple[np.ndarray, dict]:
        pooled_t, cache_t = self._table_mlp.forward(sets[0])
        pooled_j, cache_j = self._join_mlp.forward(sets[1])
        pooled_p, cache_p = self._pred_mlp.forward(sets[2])
        z = np.concatenate([pooled_t, pooled_j, pooled_p], axis=1)
        a3 = np.maximum(z @ self.W3 + self.b3, 0.0)
        logits = a3 @ self.W4 + self.b4
        out = 1.0 / (1.0 + np.exp(-logits))
        cache = {"z": z, "a3": a3, "out": out,
                 "caches": (cache_t, cache_j, cache_p)}
        return out[:, 0], cache

    def _backward(self, cache: dict, error: np.ndarray) -> list[np.ndarray]:
        batch = error.shape[0]
        out = cache["out"]
        d_logits = (error / batch)[:, None] * out * (1.0 - out)
        dW4 = cache["a3"].T @ d_logits
        db4 = d_logits.sum(axis=0)
        d_a3 = (d_logits @ self.W4.T) * (cache["a3"] > 0.0)
        dW3 = cache["z"].T @ d_a3
        db3 = d_a3.sum(axis=0)
        d_z = d_a3 @ self.W3.T
        h = self.hidden
        grads = []
        for i, mlp in enumerate((self._table_mlp, self._join_mlp, self._pred_mlp)):
            grads.extend(mlp.backward(d_z[:, i * h:(i + 1) * h],
                                      cache["caches"][i]))
        grads.extend([dW3, db3, dW4, db4])
        return grads

    # ------------------------------------------------------------------

    @obs.trace("model.fit", model="MSCNModel")
    def fit(self, queries: list[Query], cardinalities: np.ndarray) -> "MSCNModel":
        """Train on queries and their true cardinalities."""
        y_raw = np.asarray(cardinalities, dtype=np.float64)
        if len(queries) != y_raw.size:
            raise ValueError("queries and cardinalities must align")
        if len(queries) == 0:
            raise ValueError("training set must be non-empty")
        log_y = np.log(np.maximum(y_raw, 1.0))
        self._label_min = float(log_y.min())
        self._label_max = float(max(log_y.max(), self._label_min + 1e-9))
        y = (log_y - self._label_min) / (self._label_max - self._label_min)

        with obs.span("model.mscn.build_inputs", n_queries=len(queries)):
            sets = self._builder.build(queries)
        rng = np.random.default_rng(self.random_state)
        params = self._all_params()
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0

        n = len(queries)
        for epoch in range(self.epochs):
            with obs.span("model.train.epoch", model="MSCNModel",
                          epoch=epoch, metric="model.train.epoch_seconds"):
                order = rng.permutation(n)
                for start in range(0, n, self.batch_size):
                    idx = order[start:start + self.batch_size]
                    if idx.size == 0:
                        continue
                    batch_sets = tuple(s.take(idx) for s in sets)
                    pred, cache = self._forward(batch_sets)
                    grads = self._backward(cache, pred - y[idx])
                    step += 1
                    for p, g, m_i, v_i in zip(params, grads, m, v):
                        m_i *= beta1
                        m_i += (1 - beta1) * g
                        v_i *= beta2
                        v_i += (1 - beta2) * g**2
                        m_hat = m_i / (1 - beta1**step)
                        v_hat = v_i / (1 - beta2**step)
                        p -= (self.learning_rate * m_hat
                              / (np.sqrt(v_hat) + eps))
        self._fitted = True
        return self

    @obs.trace("model.predict", model="MSCNModel")
    def predict(self, queries: list[Query]) -> np.ndarray:
        """Predict cardinalities (denormalised from the sigmoid output)."""
        if not self._fitted:
            raise RuntimeError("model must be fitted before predicting")
        with obs.span("model.mscn.build_inputs", n_queries=len(queries)):
            sets = self._builder.build(queries)
        out, _ = self._forward(sets)
        log_pred = out * (self._label_max - self._label_min) + self._label_min
        return np.maximum(np.exp(np.clip(log_pred, 0.0, 80.0)),
                          config.MIN_ESTIMATE)

    def memory_bytes(self) -> int:
        """Footprint of all trainable parameters (Section 5.7)."""
        return sum(p.nbytes for p in self._all_params())
