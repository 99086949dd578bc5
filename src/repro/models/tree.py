"""Histogram-based regression trees (the weak learners of gradient boosting).

This is the substrate replacing lightGBM: features are pre-binned once
(:class:`BinMapper`), and tree growth finds splits by scanning per-feature
histograms of the gradient statistics — the same design lightGBM uses.
A histogram-subtraction trick (a child's histogram equals its parent's
minus its sibling's) keeps node costs proportional to the *smaller* child.

The histograms are compact (:class:`HistogramLayout`): each feature gets
only the bins it has.  Universal Conjunction Encoding writes every
partition entry as 0, ½ or 1, and Limited Disjunction Encoding's
entry-wise max keeps it so, so most features of a paper QFT have at most
three bins, and a ``max_bins``-wide histogram per feature would be
mostly cells no row can reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BinMapper", "HistogramLayout", "RegressionTree", "grow_tree"]

#: Features are processed in chunks of this many columns when building
#: histograms, bounding the per-node temporaries (gathered cell indices
#: and repeated gradients) to ``rows x _FEATURE_CHUNK`` elements.
_FEATURE_CHUNK = 256

#: Features with at most this many bins share the narrow histogram
#: group; the encodings' 0 / ½ / 1 entries give three.
_NARROW_BINS = 3


class BinMapper:
    """Maps continuous features to small integer bin codes.

    Thresholds are midpoints between adjacent (sampled) unique values, so
    no data point ever equals a threshold and ``code(x) <= b  <=>
    x < threshold[b]`` holds exactly.
    """

    def __init__(self, max_bins: int = 64) -> None:
        if not 2 <= max_bins <= 255:
            raise ValueError(f"max_bins must be in [2, 255], got {max_bins}")
        self._max_bins = max_bins
        self._thresholds: list[np.ndarray] = []

    @property
    def max_bins(self) -> int:
        """The configured maximum number of bins per feature."""
        return self._max_bins

    @property
    def n_features(self) -> int:
        """Number of features this mapper was fitted to."""
        return len(self._thresholds)

    def thresholds(self, feature: int) -> np.ndarray:
        """Sorted split thresholds of ``feature``."""
        return self._thresholds[feature]

    def fit(self, features: np.ndarray) -> "BinMapper":
        """Choose per-feature thresholds from the training matrix.

        Re-validates ``max_bins`` here as well as in the constructor:
        :meth:`transform` packs codes into uint8, so more than 255 bins
        would wrap silently (code 256 → 0) and corrupt every downstream
        histogram.  Failing loudly at fit time catches configs that
        bypassed ``__init__`` (deserialisation, subclasses, direct
        attribute mutation).
        """
        if not 2 <= self._max_bins <= 255:
            raise ValueError(
                f"max_bins must be in [2, 255] to fit uint8 bin codes, "
                f"got {self._max_bins}"
            )
        X = np.asarray(features, dtype=np.float64)
        self._thresholds = []
        for column in X.T:
            uniques = np.unique(column)
            if uniques.size <= 1:
                thresholds = np.empty(0, dtype=np.float64)
            elif uniques.size <= self._max_bins:
                thresholds = (uniques[:-1] + uniques[1:]) / 2.0
            else:
                # Sample bin boundaries at equi-spaced unique positions.
                positions = np.linspace(
                    0, uniques.size, self._max_bins + 1
                ).astype(int)[1:-1]
                positions = np.unique(positions)
                thresholds = (uniques[positions - 1] + uniques[positions]) / 2.0
            # A midpoint between nearly-equal values can round onto one of
            # them, which would break the ``code(x) <= b <=> x < t[b]``
            # invariant; drop colliding thresholds (merging the two
            # indistinguishable values into one bin) and duplicates.
            thresholds = np.unique(thresholds)
            positions = np.searchsorted(uniques, thresholds)
            positions = np.clip(positions, 0, uniques.size - 1)
            collides = uniques[positions] == thresholds
            self._thresholds.append(thresholds[~collides])
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Return uint8 bin codes of shape ``(n, d)``."""
        X = np.asarray(features, dtype=np.float64)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        codes = np.empty(X.shape, dtype=np.uint8)
        for j, thresholds in enumerate(self._thresholds):
            # fit() rejects max_bins > 255, but thresholds can also
            # arrive via persistence, where a corrupt or hand-built
            # artifact bypasses that check — and searchsorted output
            # beyond 255 would wrap to a valid-looking uint8 code.
            if thresholds.size > 254:
                raise ValueError(
                    f"column {j} has {thresholds.size} thresholds; "
                    "bin codes above 255 cannot fit uint8"
                )
            codes[:, j] = np.searchsorted(thresholds, X[:, j]).astype(np.uint8)
        return codes


@dataclass
class RegressionTree:
    """A trained tree in flat-array form.

    ``feature[i] < 0`` marks node ``i`` as a leaf with prediction
    ``value[i]``; otherwise rows with ``x[feature[i]] < threshold[i]`` go
    to ``left[i]`` and the rest to ``right[i]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    split_bin: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def node_count(self) -> int:
        """Total number of nodes (inner + leaves)."""
        return int(self.feature.size)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict from raw (un-binned) features."""
        X = np.asarray(features, dtype=np.float64)
        return self._traverse(X, lambda idx, node: (
            X[idx, self.feature[node]] < self.threshold[node]
        ))

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict from pre-binned codes (used inside the boosting loop)."""
        return self._traverse(codes, lambda idx, node: (
            codes[idx, self.feature[node]] <= self.split_bin[node]
        ))

    def _traverse(self, X: np.ndarray, goes_left) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=np.float64)
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            mask = goes_left(idx, node)
            stack.append((int(self.left[node]), idx[mask]))
            stack.append((int(self.right[node]), idx[~mask]))
        return out

    def memory_bytes(self) -> int:
        """Serialized size of the node arrays."""
        return sum(arr.nbytes for arr in (
            self.feature, self.threshold, self.split_bin,
            self.left, self.right, self.value,
        ))


class _Group:
    """Features that share one padded histogram width.

    A feature with ``b`` bins keeps its first ``b - 1`` (a split on the
    last bin sends every row left, so the search never reads it), placed
    at the right end of its ``width``-cell row: the padding comes first,
    where a cumulative count of 0 can never be a valid split.
    ``chunks`` holds ``(start, stop, cells, indptr)`` per run of at most
    :data:`_FEATURE_CHUNK` of the group's features: ``cells[indptr[r]:
    indptr[r + 1]]`` are row ``r``'s histogram cells in that chunk, in
    feature order, for the entries below their feature's last bin, as
    uint16 (at most 256 features x 255 cells).
    """

    __slots__ = ("features", "width", "padding", "chunks")

    def __init__(self, codes: np.ndarray, features: np.ndarray,
                 bins: np.ndarray) -> None:
        self.features = features
        self.width = int(bins.max()) - 1
        self.padding = self.width - (bins - 1)
        self.chunks = []
        for start in range(0, features.size, _FEATURE_CHUNK):
            stop = min(start + _FEATURE_CHUNK, features.size)
            block = codes[:, features[start:stop]]
            below_last = block < bins[start:stop] - 1
            cells = (block.astype(np.uint16)
                     + (np.arange(stop - start) * self.width
                        + self.padding[start:stop]).astype(np.uint16))
            indptr = np.zeros(codes.shape[0] + 1, dtype=np.int64)
            np.cumsum(below_last.sum(axis=1), out=indptr[1:])
            self.chunks.append((start, stop, cells[below_last], indptr))


class HistogramLayout:
    """A binned training matrix laid out for compact node histograms.

    Each feature gets only the bins it has (``thresholds.size + 1``),
    less its last.  Constant features can never split and are dropped;
    the rest form two groups of one padded width each: the features with
    at most :data:`_NARROW_BINS` bins, and the others at the widest
    one's bin count (see :class:`_Group`).  The cell indices are built
    once here, so one boosting fit builds them once for all its trees,
    and a node's histogram costs one gather and two ``bincount`` calls
    per chunk over the node's entries below their feature's last bin
    (most of an encoding's entries are 1, the last bin).

    :meth:`grow` picks exactly the split a scan of ``max_bins``-wide
    histograms over every feature picks (the oracle in
    ``tests/models/wide_tree.py``), so trees are bitwise the same:

    * a cell's count and gradient sum accumulate in row order in both
      layouts, and a feature's cumulative sums run over the same bins;
    * with ``min_samples_leaf >= 1`` neither a padded cell nor a
      feature's last bin is a valid split;
    * among equal gains the smallest feature id wins, then the smallest
      bin, as ``np.argmax`` over the wide array picks;
    * the ``colsample`` mask is drawn over all features, constant ones
      included, so seeded fits draw the same masks.
    """

    def __init__(self, codes: np.ndarray, mapper: BinMapper) -> None:
        codes = np.asarray(codes)
        if codes.ndim != 2 or codes.shape[1] != mapper.n_features:
            raise ValueError(
                f"expected codes of shape (n, {mapper.n_features}), "
                f"got {codes.shape}")
        bins = np.asarray([mapper.thresholds(j).size + 1
                           for j in range(mapper.n_features)], dtype=np.int64)
        if (bins > 256).any() or (
                codes.shape[0] and (codes.max(axis=0) >= bins).any()):
            raise ValueError(
                "bin codes must lie within their feature's thresholds "
                "and fit uint8")
        self.codes = codes
        self.mapper = mapper
        self.n_features = codes.shape[1]
        self._groups = []
        for member in ((bins > 1) & (bins <= _NARROW_BINS),
                       bins > _NARROW_BINS):
            features = np.flatnonzero(member)
            if features.size:
                self._groups.append(_Group(codes, features, bins[features]))

    def _histograms(self, rows: np.ndarray, gradients: np.ndarray
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-group ``(counts, sums)`` histograms of a node's rows."""
        g = gradients[rows]
        hists = []
        for group in self._groups:
            shape = (group.features.size, group.width)
            counts = np.empty(shape, dtype=np.float64)
            sums = np.empty(shape, dtype=np.float64)
            for start, stop, cells, indptr in group.chunks:
                first = indptr[rows]
                lengths = indptr[rows + 1] - first
                ends = np.cumsum(lengths)
                # Positions of the node's entries in ``cells``, row by row.
                positions = np.repeat(first - (ends - lengths), lengths)
                positions += np.arange(positions.size)
                flat = cells[positions]
                size = (stop - start) * group.width
                counts[start:stop] = np.bincount(
                    flat, minlength=size).reshape(stop - start, group.width)
                sums[start:stop] = np.bincount(
                    flat, weights=np.repeat(g, lengths),
                    minlength=size).reshape(stop - start, group.width)
            hists.append((counts, sums))
        return hists

    def _best_split(self, hists: list[tuple[np.ndarray, np.ndarray]],
                    total_count: float, total_sum: float,
                    min_samples_leaf: int,
                    feature_mask: np.ndarray | None
                    ) -> tuple[float, int, int]:
        """``(gain, feature, split_bin)`` of the best split (gain -inf if none)."""
        parent_score = total_sum**2 / total_count
        candidates = []
        for group, (counts, sums) in zip(self._groups, hists):
            cum_counts = np.cumsum(counts, axis=1)
            cum_sums = np.cumsum(sums, axis=1)
            right_counts = total_count - cum_counts
            right_sums = total_sum - cum_sums
            valid = ((cum_counts >= min_samples_leaf)
                     & (right_counts >= min_samples_leaf))
            if feature_mask is not None:
                valid &= feature_mask[group.features][:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = cum_sums**2 / cum_counts + right_sums**2 / right_counts
            gain = np.where(valid, gain - parent_score, -np.inf)
            local, cell = divmod(int(np.argmax(gain)), group.width)
            candidates.append((int(group.features[local]),
                               cell - int(group.padding[local]),
                               float(gain[local, cell])))
        if not candidates:
            return -np.inf, 0, 0
        # Each group's first maximum in (feature, bin) order; the first
        # of those in feature order is the wide array's first maximum.
        candidates.sort()
        feature, split_bin, gain = candidates[int(np.argmax(
            [candidate[2] for candidate in candidates]))]
        return gain, feature, split_bin

    def grow(self, gradients: np.ndarray, rows: np.ndarray | None = None,
             max_depth: int = 6, min_samples_leaf: int = 20,
             min_gain: float = 1e-10, colsample: float = 1.0,
             rng: np.random.Generator | None = None) -> RegressionTree:
        """Grow one regression tree against ``gradients`` (see :func:`grow_tree`)."""
        if rows is None:
            rows = np.arange(self.codes.shape[0])
        if rows.size == 0:
            raise ValueError("cannot grow a tree on zero rows")
        if not 0.0 < colsample <= 1.0:
            raise ValueError(f"colsample must be in (0, 1], got {colsample}")
        if max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if colsample < 1.0 and rng is None:
            # Column subsampling needs randomness even when the caller did
            # not pass a generator; a fixed seed keeps training reproducible
            # (Equation 4's determinism contract, enforced by RPR202).
            rng = np.random.default_rng(0)

        feature: list[int] = []
        threshold: list[float] = []
        split_bin: list[int] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def new_node() -> int:
            feature.append(-1)
            threshold.append(0.0)
            split_bin.append(0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature) - 1

        def can_split(node_rows: np.ndarray, depth: int) -> bool:
            return (depth < max_depth
                    and node_rows.size >= 2 * min_samples_leaf)

        root = new_node()
        # Depth-first growth; each stack entry carries the node's
        # histograms when it can split, so the larger child of a split
        # is derived by subtraction from its parent's.
        stack = [(root, rows, 0, None)]
        while stack:
            node, node_rows, depth, hists = stack.pop()
            g_sum = float(gradients[node_rows].sum())
            n_node = float(node_rows.size)
            value[node] = g_sum / n_node
            if not can_split(node_rows, depth):
                continue
            if hists is None:
                hists = self._histograms(node_rows, gradients)
            feature_mask = None
            if colsample < 1.0:
                feature_mask = rng.random(self.n_features) < colsample
                if not feature_mask.any():
                    feature_mask[rng.integers(self.n_features)] = True
            gain, feat, bin_idx = self._best_split(
                hists, n_node, g_sum, min_samples_leaf, feature_mask)
            if gain <= min_gain:
                continue
            # A valid split leaves at least min_samples_leaf rows on each
            # side, and bin_idx is below the feature's last bin.
            go_left = self.codes[node_rows, feat] <= bin_idx
            left_rows = node_rows[go_left]
            right_rows = node_rows[~go_left]

            feature[node] = feat
            threshold[node] = float(self.mapper.thresholds(feat)[bin_idx])
            split_bin[node] = bin_idx
            left_id = new_node()
            right_id = new_node()
            left[node] = left_id
            right[node] = right_id

            if left_rows.size <= right_rows.size:
                small_rows, small_id = left_rows, left_id
                big_rows, big_id = right_rows, right_id
            else:
                small_rows, small_id = right_rows, right_id
                big_rows, big_id = left_rows, left_id
            # Histograms only for children that can split (the smaller
            # child can split only if the larger can).
            small_hists = big_hists = None
            if can_split(big_rows, depth + 1):
                small_hists = self._histograms(small_rows, gradients)
                big_hists = [(counts - small_counts, sums - small_sums)
                             for (counts, sums), (small_counts, small_sums)
                             in zip(hists, small_hists)]
            stack.append((small_id, small_rows, depth + 1, small_hists))
            stack.append((big_id, big_rows, depth + 1, big_hists))

        return RegressionTree(
            feature=np.asarray(feature, dtype=np.int32),
            threshold=np.asarray(threshold, dtype=np.float64),
            split_bin=np.asarray(split_bin, dtype=np.int32),
            left=np.asarray(left, dtype=np.int32),
            right=np.asarray(right, dtype=np.int32),
            value=np.asarray(value, dtype=np.float64),
        )


def grow_tree(codes: np.ndarray, gradients: np.ndarray, mapper: BinMapper,
              rows: np.ndarray | None = None, max_depth: int = 6,
              min_samples_leaf: int = 20, min_gain: float = 1e-10,
              colsample: float = 1.0,
              rng: np.random.Generator | None = None) -> RegressionTree:
    """Grow one regression tree on binned features against ``gradients``.

    ``codes`` are ``mapper``'s bin codes.  ``rows`` restricts training to
    a row subset (boosting's subsampling).  ``colsample`` draws a feature
    subset per node.  Boosting builds the :class:`HistogramLayout` once
    and calls :meth:`HistogramLayout.grow` per tree instead.
    """
    return HistogramLayout(codes, mapper).grow(
        gradients, rows=rows, max_depth=max_depth,
        min_samples_leaf=min_samples_leaf, min_gain=min_gain,
        colsample=colsample, rng=rng)
