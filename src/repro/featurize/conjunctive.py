"""Universal Conjunction Encoding (paper label: ``conjunctive``; Section 3.2).

The data-driven QFT of Algorithm 1: the domain of each attribute ``A`` is
discretised into ``n_A = min(n, max(A) - min(A) + 1)`` partitions and each
partition owns one feature-vector entry whose categorical value states
whether the partition satisfies the query's predicates on ``A``:

* ``1``  — every value in the partition qualifies,
* ``1/2`` — some values qualify (a predicate boundary falls inside),
* ``0``  — no value qualifies.

Attributes without predicates stay all-one.  This supports *arbitrarily
many* AND-connected simple predicates per attribute, because each
predicate can only lower entries (conjunctions only grow more selective).
By Lemma 3.2 the encoding converges to a lossless featurization as ``n``
grows; once every partition covers a single integer value the encoding is
exact and entries take only values ``{0, 1}`` (the refinement mentioned at
the end of Section 3.2).

Optionally (Algorithm 1's gray lines, ablated in the paper's Table 3) a
*per-attribute selectivity estimate* under the uniformity assumption is
appended to each attribute's segment.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.data.table import Table
from repro.featurize.base import Featurizer, LosslessnessError
from repro.featurize.batch import (
    OP_EQ,
    OP_GE,
    OP_GT,
    OP_LE,
    OP_LT,
    OP_NE,
    PredicateBatch,
)
from repro.sql.ast import BoolExpr

__all__ = ["ConjunctiveEncoding"]

_HALF = 0.5


class ConjunctiveEncoding(Featurizer):
    """Universal Conjunction Encoding (Algorithm 1).

    Parameters
    ----------
    table:
        Table whose attribute statistics define the feature space.
    attributes:
        Optional subset/ordering of attributes (defaults to all columns).
    max_partitions:
        Maximum per-attribute entries ``n`` (paper default 64; the sweep in
        Table 5 varies this).
    attr_selectivity:
        Whether to append the per-attribute uniformity selectivity
        estimate (the gray lines of Algorithm 1; ablated in Table 3).
    """

    name = "conjunctive"

    def __init__(self, table: Table, attributes=None,
                 max_partitions: int = config.DEFAULT_PARTITIONS,
                 attr_selectivity: bool = True) -> None:
        super().__init__(table, attributes)
        if max_partitions < 1:
            raise ValueError(f"max_partitions must be >= 1, got {max_partitions}")
        self._max_partitions = max_partitions
        self._attr_selectivity = attr_selectivity
        self._partition_counts: dict[str, int] = {}
        self._exact: dict[str, bool] = {}
        for attr in self.attributes:
            stats = self.stats(attr)
            if stats.is_integral:
                n_attr = min(max_partitions, int(stats.domain_size))
            else:
                n_attr = max_partitions
            n_attr = max(n_attr, 1)
            self._partition_counts[attr] = n_attr
            # One partition per integer value -> the encoding is exact and
            # entries never need the "some values qualify" 1/2 state.
            self._exact[attr] = stats.is_integral and n_attr >= stats.domain_size
        self._refresh_partition_arrays()

    def _refresh_partition_arrays(self) -> None:
        """Rebuild the columnar partition-geometry arrays.

        Called whenever ``_partition_counts`` / ``_exact`` change (the
        equi-depth subclass recomputes them after fitting boundaries).
        The encode kernel indexes these by attribute id.
        """
        self._counts = np.array(
            [self._partition_counts[a] for a in self.attributes],
            dtype=np.int64)
        self._exact_flags = np.array(
            [self._exact[a] for a in self.attributes], dtype=bool)
        widths = self._counts + self._segment_extra
        self._seg_offsets = np.concatenate(
            ([0], np.cumsum(widths)[:-1]))

    def get_config(self) -> dict:
        return {"max_partitions": self._max_partitions,
                "attr_selectivity": self._attr_selectivity}

    @property
    def max_partitions(self) -> int:
        """The configured maximum per-attribute partition count ``n``."""
        return self._max_partitions

    @property
    def attr_selectivity(self) -> bool:
        """Whether per-attribute selectivity estimates are appended."""
        return self._attr_selectivity

    def partitions(self, attribute: str) -> int:
        """Number of partitions ``n_A`` used for ``attribute``."""
        return self._partition_counts[attribute]

    def is_exact(self, attribute: str) -> bool:
        """True iff every partition of ``attribute`` covers one value."""
        return self._exact[attribute]

    @property
    def _segment_extra(self) -> int:
        return 1 if self._attr_selectivity else 0

    @property
    def feature_length(self) -> int:
        """Dimension of the produced feature vectors."""
        return sum(self._partition_counts[a] + self._segment_extra
                   for a in self.attributes)

    def attribute_slices(self) -> dict[str, slice]:
        """Map each attribute to its segment of the feature vector."""
        slices: dict[str, slice] = {}
        offset = 0
        for attr in self.attributes:
            width = self._partition_counts[attr] + self._segment_extra
            slices[attr] = slice(offset, offset + width)
            offset += width
        return slices

    def partition_index(self, attribute: str, value: float) -> int:
        """Zero-based partition index of ``value`` (Algorithm 1, line 4).

        Values outside the observed domain map to the *virtual* indices
        ``-1`` (below the minimum) and ``n_A`` (above the maximum), which
        the per-operator logic interprets as "no partition affected" /
        "all partitions affected" respectively.
        """
        return int(self._partition_indices(
            np.array([self.attributes.index(attribute)]),
            np.array([value], dtype=np.float64))[0])

    def _partition_indices(self, attr_ids: np.ndarray,
                           values: np.ndarray) -> np.ndarray:
        """:meth:`partition_index` over predicate rows (equal width)."""
        counts = self._counts[attr_ids]
        mins = self._min_values[attr_ids]
        scaled = (values - mins) / self._domain_sizes[attr_ids] * counts
        idx = np.floor(scaled).astype(np.int64)
        np.minimum(np.maximum(idx, 0, out=idx), counts - 1, out=idx)
        idx[values < mins] = -1
        above = values > self._max_values[attr_ids]
        idx[above] = counts[above]
        return idx

    def _partition_values(self, attr_ids: np.ndarray,
                          indices: np.ndarray) -> np.ndarray:
        """The single value each *exact* partition covers.

        Only meaningful where :meth:`is_exact` holds; equal-width exact
        partitions map index ``i`` to the integer ``min(A) + i``.
        Subclasses with other geometries (equi-depth) override this.
        """
        return self._min_values[attr_ids] + indices

    def _disjunction_error(self, expr: BoolExpr) -> LosslessnessError:
        return LosslessnessError(
            "Universal Conjunction Encoding handles conjunctions only; "
            f"got: {expr.to_sql()} — use Limited Disjunction Encoding "
            "for mixed queries"
        )

    # ------------------------------------------------------------------
    # Algorithm 1: the encode stage
    # ------------------------------------------------------------------

    def _featurize_compiled(self, batch: PredicateBatch) -> np.ndarray:
        # Attributes without predicates keep all-one entries and (when
        # enabled) selectivity 1.0, so all-ones is the matrix default.
        matrix = np.ones((batch.n_queries, self.feature_length),
                         dtype=np.float64)
        if batch.n_predicates == 0:
            return matrix
        segments, group_queries, group_attrs, _ = (
            self._compiled_attribute_segments(batch))
        counts = self._counts[group_attrs]
        offsets = self._seg_offsets[group_attrs]
        max_n = segments.shape[1] - self._segment_extra
        cols = np.arange(max_n)
        # Scatter each group's first n_A columns into its segment; the
        # trailing columns of wider-than-n_A rows are padding.
        dest = offsets[:, None] + cols[None, :]
        valid = cols[None, :] < counts[:, None]
        rows2d = np.broadcast_to(group_queries[:, None], dest.shape)
        matrix[rows2d[valid], dest[valid]] = segments[:, :max_n][valid]
        if self._segment_extra:
            matrix[group_queries, offsets + counts] = segments[:, -1]
        return matrix

    def _compiled_attribute_segments(
            self, batch: PredicateBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Encode one merged segment row per predicated (query, attribute).

        Returns ``(segments, group_queries, group_attrs, group_positions)``
        where ``segments`` has ``max(n_A)`` partition columns (padded)
        plus, when enabled, the selectivity appendix as last column, and
        ``group_positions`` holds each group's first compile-order
        position (set consumers like the MSCN input builder use it to
        reproduce per-query row order).

        Equivalence with the sequential Algorithm 1 (lines 5-16): each
        predicate lowers entries by an elementwise *minimum* with a
        per-predicate mask — ones on a keep-window ``[wlo, whi]``, zero
        outside, with an optional ``{0, 1/2}`` point update at the
        boundary partition.  Minimum is exactly commutative, so a group's
        entries equal the intersection of its windows with all point
        updates min-applied, which grouped reductions compute directly.
        For exact partitions the boundary partition's single value is
        known, so it resolves to 0 or 1 instead of ½ (the refinement at
        the end of Section 3.2).
        """
        order = np.lexsort(
            (batch.branch_index, batch.attr_index, batch.query_index))
        q = batch.query_index[order]
        a = batch.attr_index[order]
        b = batch.branch_index[order]
        op = batch.op_code[order]
        values = batch.value[order]
        positions = batch.position[order]

        counts = self._counts[a]
        idx = self._partition_indices(a, values)
        in_dom = (idx >= 0) & (idx < counts)
        exact = self._exact_flags[a] & in_dom
        u = np.zeros(values.size, dtype=np.float64)
        if np.any(exact):
            u[exact] = self._partition_values(a[exact], idx[exact])

        is_eq = op == OP_EQ
        is_ne = op == OP_NE
        is_gt = op == OP_GT
        is_ge = op == OP_GE
        is_lt = op == OP_LT
        is_le = op == OP_LE
        lower = is_gt | is_ge
        upper = is_lt | is_le

        # Keep-windows (defaults: the full partition range).
        wlo = np.zeros(values.size, dtype=np.int64)
        whi = counts - 1
        eq_dom = is_eq & in_dom
        wlo[eq_dom] = idx[eq_dom]
        whi[eq_dom] = idx[eq_dom]
        low_dom = lower & in_dom
        wlo[low_dom] = idx[low_dom]
        up_dom = upper & in_dom
        whi[up_dom] = idx[up_dom]
        empty_win = ((is_eq & ~in_dom) | (lower & (idx >= counts))
                     | (upper & (idx < 0)))
        wlo[empty_win] = counts[empty_win]
        whi[empty_win] = -1

        # Boundary-partition point updates: 1/2 when the partition's
        # content is unknown, 0 when the exact value fails the predicate.
        half_point = in_dom & ~exact
        zero_point = exact & (
            (is_eq & (u != values))
            | (is_ne & (u == values))
            | (is_gt & (u <= values))
            | (is_ge & (u < values))
            | (is_lt & (u >= values))
            | (is_le & (u > values))
        )

        # Group rows by (query, attribute, branch).
        key_change = np.empty(values.size, dtype=bool)
        key_change[0] = True
        key_change[1:] = ((q[1:] != q[:-1]) | (a[1:] != a[:-1])
                          | (b[1:] != b[:-1]))
        starts = np.flatnonzero(key_change)
        gid = np.cumsum(key_change) - 1
        group_queries = q[starts]
        group_attrs = a[starts]
        # The stable lexsort keeps compile order within a group, so the
        # start row holds the group's first-seen position.
        group_positions = positions[starts]

        cols = np.arange(int(self._counts.max()))
        g_wlo = np.maximum.reduceat(wlo, starts)
        g_whi = np.minimum.reduceat(whi, starts)
        segments = ((cols[None, :] >= g_wlo[:, None])
                    & (cols[None, :] <= g_whi[:, None])).astype(np.float64)
        point = half_point | zero_point
        if np.any(point):
            np.minimum.at(
                segments,
                (gid[point], idx[point]),
                np.where(zero_point[point], 0.0, _HALF),
            )

        if self._segment_extra:
            selectivity = self._group_selectivities(
                op, values, self._steps[a], starts, gid, group_attrs)
            segments = np.concatenate(
                [segments, selectivity[:, None]], axis=1)

        # Merge disjunction branches within each (query, attribute).
        merge_key = np.empty(starts.size, dtype=bool)
        merge_key[0] = True
        merge_key[1:] = ((group_queries[1:] != group_queries[:-1])
                         | (group_attrs[1:] != group_attrs[:-1]))
        if not merge_key.all():
            attr_starts = np.flatnonzero(merge_key)
            segments = self._merge_branch_rows(segments, attr_starts)
            group_queries = group_queries[attr_starts]
            group_attrs = group_attrs[attr_starts]
            group_positions = group_positions[attr_starts]
        return segments, group_queries, group_attrs, group_positions

    def _merge_branch_rows(self, rows: np.ndarray,
                           starts: np.ndarray) -> np.ndarray:
        """Merge consecutive disjunction-branch rows into attribute rows.

        The conjunctive compile emits a single branch per group, so this
        only runs for the disjunction subclass; max is Algorithm 2's
        entry-wise merge, and the "sum" ablation overrides it.
        """
        return np.maximum.reduceat(rows, starts, axis=0)

    def _group_selectivities(self, op: np.ndarray, values: np.ndarray,
                             steps: np.ndarray, starts: np.ndarray,
                             gid: np.ndarray,
                             group_attrs: np.ndarray) -> np.ndarray:
        """Fold + uniformity selectivity per predicate group.

        Algorithm 1's gray lines: each group's conjunction folds into a
        closed interval (as :func:`~repro.featurize.selectivity.
        fold_conjunction` does; max/min folds are exactly commutative),
        and the qualifying domain size is divided by the total domain
        size ``max(A) - min(A) + 1`` — a Selinger-style estimate, *not*
        a data-driven one.  Integral domains count qualifying integers
        minus the distinct integer ``<>`` values inside the interval;
        continuous domains use interval length (exclusions have measure
        zero), and an equality collapse is credited
        ``1 / distinct_count``.
        """
        lo_cand = np.full(values.size, -np.inf)
        hi_cand = np.full(values.size, np.inf)
        m = op == OP_EQ
        lo_cand[m] = values[m]
        hi_cand[m] = values[m]
        m = op == OP_GE
        lo_cand[m] = values[m]
        m = op == OP_GT
        lo_cand[m] = values[m] + steps[m]
        m = op == OP_LE
        hi_cand[m] = values[m]
        m = op == OP_LT
        hi_cand[m] = values[m] - steps[m]

        lo = np.maximum(np.maximum.reduceat(lo_cand, starts),
                        self._min_values[group_attrs])
        hi = np.minimum(np.minimum.reduceat(hi_cand, starts),
                        self._max_values[group_attrs])

        # Integral domains: qualifying integer count minus the distinct
        # integer-valued <> exclusions inside the folded interval.
        ilo = np.ceil(lo)
        ihi = np.floor(hi)
        excluded = np.zeros(starts.size, dtype=np.float64)
        ne = op == OP_NE
        if np.any(ne):
            pairs = np.unique(
                np.column_stack([gid[ne].astype(np.float64), values[ne]]),
                axis=0)
            pair_gid = pairs[:, 0].astype(np.int64)
            pair_value = pairs[:, 1]
            inside = ((pair_value >= ilo[pair_gid])
                      & (pair_value <= ihi[pair_gid])
                      & (pair_value == np.floor(pair_value)))
            np.add.at(excluded, pair_gid[inside], 1.0)
        qualifying = np.maximum((ihi - ilo + 1.0) - excluded, 0.0)
        integral_sel = qualifying / self._domain_sizes[group_attrs]

        # Continuous domains: interval length over the span; an equality
        # collapse is credited one distinct value.
        width = hi - lo
        span = self._spans[group_attrs]
        safe_span = np.where(span > 0.0, span, 1.0)
        continuous_sel = np.minimum(width / safe_span, 1.0)
        collapse = 1.0 / np.maximum(self._distinct_counts[group_attrs], 1.0)
        continuous_sel = np.where(width <= 0.0, collapse, continuous_sel)
        continuous_sel = np.where(span <= 0.0, 1.0, continuous_sel)

        selectivity = np.where(self._integral[group_attrs],
                               integral_sel, continuous_sel)
        return np.where(lo > hi, 0.0, selectivity)
