"""Equi-depth partitioning for Universal Conjunction Encoding.

Section 3.2 notes that the partition count interacts with skew: "For
attributes with high skew, a larger n may be necessary.  [...] One could
also apply sophisticated partitioning techniques from the field of
histograms, like v-optimal and q-optimal partitioning."

This module implements the classic member of that family: **equi-depth**
partitions, whose boundaries are value quantiles, so every partition
covers (roughly) the same number of *rows* instead of the same slice of
the value *domain*.  On skewed attributes this spends resolution where
the data lives; the equal-width layout of the base class wastes most
partitions on empty domain regions.

Everything else of Algorithm 1 — the ``{0, ½, 1}`` alphabet, operator
handling, per-attribute selectivity appendix, Algorithm 2 merging via
:class:`~repro.featurize.disjunction.DisjunctionEncoding` — is inherited
unchanged; only the value-to-partition geometry differs.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.data.stats import TableStats
from repro.data.table import Table
from repro.featurize.conjunctive import ConjunctiveEncoding

__all__ = ["EquiDepthConjunctiveEncoding"]


class EquiDepthConjunctiveEncoding(ConjunctiveEncoding):
    """Universal Conjunction Encoding over quantile-boundary partitions."""

    name = "conjunctive-equidepth"

    def __init__(self, table: Table, attributes=None,
                 max_partitions: int = config.DEFAULT_PARTITIONS,
                 attr_selectivity: bool = True) -> None:
        if isinstance(table, TableStats):
            raise TypeError(
                "equi-depth partitioning needs column values, not a "
                "statistics snapshot; fit it against the Table"
            )
        super().__init__(table, attributes, max_partitions=max_partitions,
                         attr_selectivity=attr_selectivity)
        # Per-attribute *upper* boundaries of partitions 0..n_A-2 (the
        # last partition is unbounded above): value v belongs to the
        # first partition whose boundary is >= v.
        self._boundaries: dict[str, np.ndarray] = {}
        # The single distinct value per partition, for exact attributes.
        self._uniques: dict[str, np.ndarray] = {}
        for attr in self.attributes:
            values = table.column(attr).values
            uniques = np.unique(values)
            n_attr = min(self._max_partitions, uniques.size)
            self._partition_counts[attr] = max(n_attr, 1)
            self._exact[attr] = uniques.size <= n_attr
            if self._exact[attr]:
                # One partition per distinct value; boundaries are the
                # values themselves (minus the last).
                self._boundaries[attr] = uniques[:-1]
                self._uniques[attr] = uniques
            else:
                quantiles = np.linspace(0.0, 1.0, n_attr + 1)[1:-1]
                edges = np.quantile(values, quantiles, method="inverted_cdf")
                # Collapsed edges (heavy skew) would create empty
                # partitions; dedupe and accept a smaller n_attr.
                edges = np.unique(edges)
                self._boundaries[attr] = edges
                self._partition_counts[attr] = edges.size + 1
        # The loop above changes partition counts; rebuild the columnar
        # geometry the batch encode kernel indexes.
        self._refresh_partition_arrays()

    def _partition_lookup(self, attr_ids: np.ndarray, values: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Quantile-boundary partition lookup (replaces the linear formula).

        Values outside the observed domain are flagged ``below`` /
        ``above`` exactly like the base class; their partition is the
        first / last one, where ``searchsorted`` leaves them (the last
        partition is unbounded above).
        """
        idx = np.empty(values.size, dtype=np.int64)
        for attr_id in np.unique(attr_ids):
            selected = attr_ids == attr_id
            boundaries = self._boundaries[self.attributes[attr_id]]
            idx[selected] = np.searchsorted(
                boundaries, values[selected], side="left")
        return (idx, values < self._min_values[attr_ids],
                values > self._max_values[attr_ids])

    def _partition_values(self, attr_ids: np.ndarray,
                          indices: np.ndarray) -> np.ndarray:
        """The distinct value each exact equi-depth partition covers."""
        out = np.empty(indices.size, dtype=np.float64)
        for attr_id in np.unique(attr_ids):
            selected = attr_ids == attr_id
            uniques = self._uniques[self.attributes[attr_id]]
            out[selected] = uniques[indices[selected]]
        return out

    def get_config(self) -> dict:
        config_dict = super().get_config()
        config_dict["partitioning"] = "equi-depth"
        return config_dict

    # ------------------------------------------------------------------
    # Persistence (see repro.persistence)
    # ------------------------------------------------------------------

    def fitted_state_arrays(self) -> dict[str, np.ndarray]:
        """Data-derived geometry arrays for persistence.

        The quantile boundaries (and, for exact attributes, the distinct
        values) come from the fitted table's column values, which a
        statistics snapshot cannot reproduce — so they ride along in the
        ``.npz`` artifact and :meth:`from_fitted_state` restores them
        without the data.
        """
        arrays: dict[str, np.ndarray] = {}
        for attr in self.attributes:
            arrays[f"boundaries/{attr}"] = self._boundaries[attr]
            if self._exact[attr]:
                arrays[f"uniques/{attr}"] = self._uniques[attr]
        return arrays

    @classmethod
    def from_fitted_state(cls, snapshot: TableStats, attributes,
                          config: dict, arrays: dict
                          ) -> "EquiDepthConjunctiveEncoding":
        """Rebuild a fitted instance from a snapshot plus state arrays.

        Inverse of :meth:`fitted_state_arrays` +
        :meth:`~repro.featurize.base.Featurizer.get_config`: the
        constructor is bypassed (it needs column values) and the
        partition geometry is restored verbatim, so the reconstructed
        featurizer encodes bitwise-identically to the saved one.
        """
        config = {k: v for k, v in config.items() if k != "partitioning"}
        restored = cls.__new__(cls)
        # Initialise the equal-width substrate from the snapshot, then
        # overwrite its geometry with the persisted quantile boundaries.
        ConjunctiveEncoding.__init__(restored, snapshot, attributes,
                                     **config)
        restored._boundaries = {}
        restored._uniques = {}
        for attr in restored.attributes:
            key = f"boundaries/{attr}"
            if key not in arrays:
                raise KeyError(f"featurizer/{key}")
            boundaries = np.asarray(arrays[key], dtype=np.float64)
            restored._boundaries[attr] = boundaries
            uniques = arrays.get(f"uniques/{attr}")
            if uniques is not None:
                uniques = np.asarray(uniques, dtype=np.float64)
                restored._uniques[attr] = uniques
                restored._exact[attr] = True
                restored._partition_counts[attr] = max(uniques.size, 1)
            else:
                restored._exact[attr] = False
                restored._partition_counts[attr] = boundaries.size + 1
        restored._refresh_partition_arrays()
        return restored
