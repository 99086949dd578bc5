"""Wide-histogram tree growth — the test oracle for :mod:`repro.models.tree`.

Every feature gets a ``max_bins``-wide histogram, constant features and
empty bins included, and the split search scans all of it.  The shipped
trainer builds compact histograms instead (each feature only the bins
it has); the differential suite (``tests/models/test_tree_differential.py``)
requires it to grow the very same trees, node array for node array.
"""

from __future__ import annotations

import numpy as np

from repro.models.tree import BinMapper, RegressionTree

__all__ = ["grow_tree"]

#: Features are processed in chunks of this many columns when building
#: histograms, bounding the temporary flat-index array.
_FEATURE_CHUNK = 256


def _node_histograms(codes: np.ndarray, rows: np.ndarray, gradients: np.ndarray,
                     max_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature histograms of row counts and gradient sums at a node."""
    n_features = codes.shape[1]
    counts = np.empty((n_features, max_bins), dtype=np.float64)
    sums = np.empty((n_features, max_bins), dtype=np.float64)
    g = gradients[rows]
    for start in range(0, n_features, _FEATURE_CHUNK):
        stop = min(start + _FEATURE_CHUNK, n_features)
        width = stop - start
        block = codes[rows, start:stop].astype(np.int64)
        block += np.arange(width, dtype=np.int64) * max_bins
        flat = block.ravel()
        counts[start:stop] = np.bincount(
            flat, minlength=width * max_bins
        ).reshape(width, max_bins)
        sums[start:stop] = np.bincount(
            flat, weights=np.repeat(g, width), minlength=width * max_bins
        ).reshape(width, max_bins)
    return counts, sums


def _best_split(counts: np.ndarray, sums: np.ndarray, total_count: float,
                total_sum: float, min_samples_leaf: int,
                feature_mask: np.ndarray | None) -> tuple[float, int, int]:
    """Return ``(gain, feature, split_bin)`` of the best split (gain <= 0 if none)."""
    cum_counts = np.cumsum(counts, axis=1)
    cum_sums = np.cumsum(sums, axis=1)
    right_counts = total_count - cum_counts
    right_sums = total_sum - cum_sums
    valid = (cum_counts >= min_samples_leaf) & (right_counts >= min_samples_leaf)
    if feature_mask is not None:
        valid &= feature_mask[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (cum_sums**2 / cum_counts + right_sums**2 / right_counts)
    parent_score = total_sum**2 / total_count
    gain = np.where(valid, gain - parent_score, -np.inf)
    flat_best = int(np.argmax(gain))
    feature, split_bin = divmod(flat_best, counts.shape[1])
    return float(gain[feature, split_bin]), feature, split_bin


def grow_tree(codes: np.ndarray, gradients: np.ndarray, mapper: BinMapper,
              rows: np.ndarray | None = None, max_depth: int = 6,
              min_samples_leaf: int = 20, min_gain: float = 1e-10,
              colsample: float = 1.0,
              rng: np.random.Generator | None = None) -> RegressionTree:
    """Grow one regression tree on binned features against ``gradients``.

    ``rows`` restricts training to a row subset (boosting's subsampling).
    ``colsample`` draws a feature subset per node.
    """
    if rows is None:
        rows = np.arange(codes.shape[0])
    if rows.size == 0:
        raise ValueError("cannot grow a tree on zero rows")
    if not 0.0 < colsample <= 1.0:
        raise ValueError(f"colsample must be in (0, 1], got {colsample}")
    if colsample < 1.0 and rng is None:
        rng = np.random.default_rng(0)
    max_bins = mapper.max_bins
    n_features = codes.shape[1]

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

    root = new_node()
    # Depth-first growth; each stack entry carries the parent's histograms
    # so the larger child can be derived by subtraction.
    stack = [(root, rows, 0, None)]
    while stack:
        node, node_rows, depth, hists = stack.pop()
        g_sum = float(gradients[node_rows].sum())
        n_node = float(node_rows.size)
        value[node] = g_sum / n_node
        if depth >= max_depth or node_rows.size < 2 * min_samples_leaf:
            continue
        if hists is None:
            hists = _node_histograms(codes, node_rows, gradients, max_bins)
        counts, sums = hists
        feature_mask = None
        if colsample < 1.0:
            feature_mask = rng.random(n_features) < colsample
            if not feature_mask.any():
                feature_mask[rng.integers(n_features)] = True
        gain, feat, bin_idx = _best_split(
            counts, sums, n_node, g_sum, min_samples_leaf, feature_mask
        )
        if gain <= min_gain:
            continue
        thresholds = mapper.thresholds(feat)
        if bin_idx >= thresholds.size:
            continue  # split beyond the last threshold is a no-op
        go_left = codes[node_rows, feat] <= bin_idx
        left_rows = node_rows[go_left]
        right_rows = node_rows[~go_left]
        if left_rows.size < min_samples_leaf or right_rows.size < min_samples_leaf:
            continue

        feature[node] = feat
        threshold[node] = float(thresholds[bin_idx])
        split_bin[node] = bin_idx
        left_id = new_node()
        right_id = new_node()
        left[node] = left_id
        right[node] = right_id

        # Compute the smaller child's histograms; derive the larger by
        # subtraction from the parent's.
        if left_rows.size <= right_rows.size:
            small_rows, small_id = left_rows, left_id
            big_rows, big_id = right_rows, right_id
        else:
            small_rows, small_id = right_rows, right_id
            big_rows, big_id = left_rows, left_id
        small_hists = _node_histograms(codes, small_rows, gradients, max_bins)
        big_hists = (counts - small_hists[0], sums - small_hists[1])
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
