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
    exclusive_offsets,
    ragged_positions,
)
from repro.sql.ast import BoolExpr, shape_sql

__all__ = ["ConjunctiveEncoding"]

_HALF = 0.5


def _op_table(*ops: int) -> np.ndarray:
    """Op-code-indexed flags: True for ``ops``."""
    table = np.zeros(6, dtype=bool)
    table[list(ops)] = True
    return table


#: Operators that bound the keep-window (and the folded interval)
#: from below / above; strict ones tighten the fold by one step.
_SETS_LOWER = _op_table(OP_EQ, OP_GT, OP_GE)
_SETS_UPPER = _op_table(OP_EQ, OP_LT, OP_LE)
_FREE_LOWER = ~_SETS_LOWER
_FREE_UPPER = ~_SETS_UPPER
_STRICT_LOWER = _op_table(OP_GT)
_STRICT_UPPER = _op_table(OP_LT)

def _fails_table() -> np.ndarray:
    """``table[op, c]``: does an exact partition's single value ``u``
    fail the predicate ``A op v``, where ``c`` is 0, 1 or 2 for
    ``u < v``, ``u == v`` or ``u > v``?"""
    table = np.zeros((6, 3), dtype=bool)
    table[OP_EQ] = (True, False, True)
    table[OP_NE] = (False, True, False)
    table[OP_LT] = (False, True, True)
    table[OP_LE] = (False, False, True)
    table[OP_GT] = (True, True, False)
    table[OP_GE] = (True, False, False)
    return table


_FAILS = _fails_table()


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
        self._widths = self._counts + self._segment_extra
        self._seg_offsets = exclusive_offsets(self._widths)
        self._feature_length = int(self._widths.sum())
        # Per-attribute constants of the selectivity fold.
        self._safe_spans = np.where(self._spans > 0.0, self._spans, 1.0)
        self._collapse = 1.0 / np.maximum(self._distinct_counts, 1.0)
        self._degenerate = self._spans <= 0.0

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
        """Dimension of the produced feature vectors (fixed by the
        partition layout)."""
        return self._feature_length

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
        """:meth:`partition_index` over predicate rows."""
        idx, below, above = self._partition_lookup(attr_ids, values)
        idx[below] = -1
        idx[above] = self._counts[attr_ids][above]
        return idx

    def _partition_lookup(self, attr_ids: np.ndarray, values: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(partition, below, above)`` of each value (equal width).

        ``below``/``above`` flag values outside the observed domain,
        whose virtual partitions are ``-1``/``n_A``.  ``partition`` is
        Algorithm 1's line 4 clamped into ``[0, n_A - 1]``, and the
        first/last partition for a value below/above the domain — the
        keep-window edge such a bound leaves.  Subclasses with other
        geometries (equi-depth) override this.
        """
        counts = self._counts[attr_ids]
        last = counts - 1
        mins = self._min_values[attr_ids]
        scaled = (values - mins) / self._domain_sizes[attr_ids] * counts
        idx = np.floor(scaled).astype(np.int64)
        np.minimum(np.maximum(idx, 0, out=idx), last, out=idx)
        # Line 4 can land short of the last partition just above the
        # maximum (the domain size of a continuous attribute is its
        # span plus one).
        above = values > self._max_values[attr_ids]
        np.copyto(idx, last, where=above)
        return idx, values < mins, above

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
            f"got: {shape_sql(expr)} — use Limited Disjunction Encoding "
            "for mixed queries"
        )

    # ------------------------------------------------------------------
    # Algorithm 1: the encode stage
    # ------------------------------------------------------------------

    def _featurize_compiled(self, batch: PredicateBatch) -> np.ndarray:
        # Attributes without predicates keep all-one entries and (when
        # enabled) selectivity 1.0, so all-ones is the matrix default.
        matrix = np.ones((batch.n_queries, self._feature_length),
                         dtype=np.float64)
        if batch.n_predicates == 0:
            return matrix
        entries, widths = self._compiled_attribute_segments(batch)
        # Each segment's run lands at its attribute's offset in its
        # query's row of the (row-major) matrix.
        starts = (batch.segment_query * self._feature_length
                  + self._seg_offsets[batch.segment_attr])
        matrix.reshape(-1)[ragged_positions(starts, widths)] = entries
        return matrix

    def _compiled_attribute_segments(
            self, batch: PredicateBatch) -> tuple[np.ndarray, np.ndarray]:
        """Encode one merged segment per predicated (query, attribute).

        Returns ``(entries, widths)``: ``entries`` lays the segments end
        to end in segment order, each ``widths[s]`` long — its
        attribute's ``n_A`` partition entries plus, when enabled, the
        selectivity appendix.  Set consumers (the MSCN input builder)
        place the same runs into their own rows.

        Equivalence with the sequential Algorithm 1 (lines 5-16): each
        predicate lowers entries by an elementwise *minimum* with a
        per-predicate mask — ones on a keep-window ``[wlo, whi]``, zero
        outside, with an optional ``{0, 1/2}`` point update at the
        boundary partition.  Minimum is exactly commutative, so a
        branch's entries equal the intersection of its windows with all
        point updates min-applied, which grouped reductions over the
        compile stage's branch groups compute directly.  For exact
        partitions the boundary partition's single value is known, so
        it resolves to 0 or 1 instead of ½ (the refinement at the end
        of Section 3.2).
        """
        a = batch.attr_index
        op = batch.op_code
        values = batch.value
        counts = self._counts[a]
        boundary, below, above = self._partition_lookup(a, values)

        # Keep-windows: a bound inside the domain moves its window edge
        # to its boundary partition; one below (above) the domain keeps
        # the full range or empties it, by operator.
        sets_lower = _SETS_LOWER[op]
        sets_upper = _SETS_UPPER[op]
        wlo = boundary * sets_lower
        whi = np.where(sets_upper, boundary, counts - 1)
        empty = (sets_lower & above) | (sets_upper & below)
        np.copyto(wlo, counts, where=empty)

        # Boundary-partition point updates: 1/2 when the partition's
        # content is unknown, 0 when the exact value fails the predicate
        # (1, a no-op under the minimum, for every other row).
        in_dom = ~(below | above)
        exact = self._exact_flags[a] & in_dom
        point = np.where(in_dom, _HALF, 1.0)
        if np.count_nonzero(exact):
            u = self._partition_values(a[exact], boundary[exact])
            v = values[exact]
            order = (u > v).astype(np.int64) - (u < v) + 1
            point[exact] = np.where(_FAILS[op[exact], order], 0.0, 1.0)

        # One run of entries per branch group: 1 inside the group's
        # intersected window, 0 outside it, then the point updates.
        group_start = batch.group_start
        group_attrs = a[group_start]
        widths = self._widths[group_attrs]
        ends = widths.cumsum()
        begins = ends - widths
        cols = np.arange(int(ends[-1])) - begins.repeat(widths)
        g_wlo = np.maximum.reduceat(wlo, group_start)
        g_whi = np.minimum.reduceat(whi, group_start)
        entries = ((cols >= g_wlo.repeat(widths))
                   & (cols <= g_whi.repeat(widths))).astype(np.float64)
        gid = batch.group_of_rows()
        np.minimum.at(entries, begins[gid] + boundary, point)
        if self._segment_extra:
            entries[ends - 1] = self._group_selectivities(
                op, values, self._steps[a], group_start, gid, group_attrs)
        if batch.has_branches:
            entries = self._merge_branches(entries, batch, widths, begins)
            widths = self._widths[batch.segment_attr]
        return entries, widths

    def _merge_branches(self, entries: np.ndarray, batch: PredicateBatch,
                        widths: np.ndarray,
                        begins: np.ndarray) -> np.ndarray:
        """Merge each segment's branch runs into one run, branch by branch.

        The conjunctive compile emits a single branch per segment, so
        this only runs for the disjunction subclass.  Branch ``r`` of
        every segment that has one merges into the accumulated run in
        branch order, through :meth:`_merge_branch`.
        """
        first = batch.segment_start
        n_branches = np.diff(first, append=batch.group_start.size)
        seg_widths = widths[first]
        out_begins = exclusive_offsets(seg_widths)
        merged = entries[ragged_positions(begins[first], seg_widths)]
        for rank in range(1, int(n_branches.max())):
            has = np.flatnonzero(n_branches > rank)
            target = ragged_positions(out_begins[has], seg_widths[has])
            branch = entries[ragged_positions(begins[first[has] + rank],
                                              seg_widths[has])]
            merged[target] = self._merge_branch(merged[target], branch)
        return merged

    def _merge_branch(self, merged: np.ndarray,
                      branch: np.ndarray) -> np.ndarray:
        """Merge one more disjunction branch into accumulated entries.

        Max is Algorithm 2's entry-wise merge; the "sum" ablation
        overrides it.
        """
        return np.maximum(merged, branch)

    def _group_selectivities(self, op: np.ndarray, values: np.ndarray,
                             steps: np.ndarray, starts: np.ndarray,
                             gid: np.ndarray,
                             group_attrs: np.ndarray) -> np.ndarray:
        """Fold + uniformity selectivity per branch group.

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
        lo_cand = np.where(_STRICT_LOWER[op], values + steps, values)
        np.copyto(lo_cand, -np.inf, where=_FREE_LOWER[op])
        hi_cand = np.where(_STRICT_UPPER[op], values - steps, values)
        np.copyto(hi_cand, np.inf, where=_FREE_UPPER[op])
        lo = np.maximum(np.maximum.reduceat(lo_cand, starts),
                        self._min_values[group_attrs])
        hi = np.minimum(np.minimum.reduceat(hi_cand, starts),
                        self._max_values[group_attrs])

        # Integral domains: qualifying integer count minus the distinct
        # integer-valued <> exclusions inside the folded interval.
        ilo = np.ceil(lo)
        ihi = np.floor(hi)
        qualifying = (ihi - ilo) + 1.0
        ne = op == OP_NE
        if np.count_nonzero(ne):
            # Rows arrive grouped, so sorting each group's <> literals
            # puts repeats next to each other; count each value once.
            ne_gid = gid[ne]
            ne_values = values[ne]
            order = np.lexsort((ne_values, ne_gid))
            ne_gid = ne_gid[order]
            ne_values = ne_values[order]
            counted = ((ne_values >= ilo[ne_gid])
                       & (ne_values <= ihi[ne_gid])
                       & (ne_values == np.floor(ne_values)))
            counted[1:] &= ((ne_gid[1:] != ne_gid[:-1])
                            | (ne_values[1:] != ne_values[:-1]))
            qualifying -= np.bincount(ne_gid[counted],
                                      minlength=starts.size)
        selectivity = (np.maximum(qualifying, 0.0)
                       / self._domain_sizes[group_attrs])

        # Continuous domains: interval length over the span; an equality
        # collapse is credited one distinct value.
        integral = self._integral[group_attrs]
        if np.count_nonzero(integral) < integral.size:
            width = hi - lo
            continuous = np.minimum(width / self._safe_spans[group_attrs],
                                    1.0)
            continuous = np.where(width <= 0.0,
                                  self._collapse[group_attrs], continuous)
            continuous[self._degenerate[group_attrs]] = 1.0
            selectivity = np.where(integral, selectivity, continuous)
        selectivity[lo > hi] = 0.0
        return selectivity
