"""Runtime metrics: counters, gauges, histograms and SLO trackers.

One registry holds every aggregate the pipeline and the serving stack
record: how many queries were featurized, what batch sizes look like,
how request latency and the served q-error distribute.  Counters and
gauges are plain numbers.  A :class:`Histogram` buckets observations
over **fixed log-spaced edges** (quarter-decades from 1e-9 to 1e9 by
default), so two identical runs serialise to byte-identical summaries:
no data-dependent bucket boundaries, no iteration-order dependence.

A histogram may carry **label dimensions** (model, table, QFT, cache
outcome …; every distinct label-value combination is its own series)
and a **window** of logical ticks.  A windowed series keeps one slot
per tick in a ring; :meth:`MetricsRegistry.advance_all` is the single
tick source (no wall clock anywhere: the caller decides what a tick
means — every N requests, every scrape, every test barrier).  Reads
merge the ring into the sliding window, whose p50/p95/p99 are the
**upper edge of the bucket** holding the rank, clamped to the observed
max.  A tick that leaves the ring folds into the series' retired part,
so the cumulative view (ring plus retired) still holds every
observation and each observation touches exactly one slot.  Sums are
exact (Shewchuk partials, rounded once on read), so every snapshot is a
pure function of the observation multiset, independent of arrival
order and thread interleaving.

:class:`SloTracker` keeps good/bad counts against a target, with short-
and long-window burn rates on the same ticks.

This module is intentionally independent of :mod:`repro.obs.trace`
(trace depends on it for the ``metric=`` span option, not the other way
around) and of everything above :mod:`repro.obs` in the layering.

Canonical metric names used by the instrumented pipeline (the serving
stack's names are listed in ``docs/observability.md``):

=============================  =========  =================================
name                           kind       recorded by
=============================  =========  =================================
``featurize.queries_total``    counter    ``Featurizer.featurize[_batch]``
``featurize.batch_size``       histogram  ``Featurizer.featurize_batch``
``model.train.epoch_seconds``  histogram  NN / MSCN per-epoch spans
``estimator.qerror``           histogram  ``evaluate_estimator``
=============================  =========  =================================
"""

from __future__ import annotations

import bisect
import json
import math
import threading
from collections import deque
from pathlib import Path
from typing import Iterable, Mapping, Union

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "SloTracker", "MetricsRegistry",
           "DEFAULT_EDGES", "log_spaced_edges", "get_registry",
           "set_registry"]


def log_spaced_edges(low_exponent: int = -36, high_exponent: int = 36,
                     per_decade: int = 4) -> tuple[float, ...]:
    """Deterministic log-spaced bucket upper bounds.

    Edges are ``10 ** (k / per_decade)`` for integer ``k`` — computed
    from integer exponents, never from observed data, so every process
    produces the exact same floats.  Exponents are in quarter-decades by
    default: ``low_exponent=-36`` is 1e-9, ``high_exponent=36`` is 1e9.
    """
    if low_exponent >= high_exponent:
        raise ValueError(
            f"need low_exponent < high_exponent, got "
            f"[{low_exponent}, {high_exponent}]")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    return tuple(10.0 ** (k / per_decade)
                 for k in range(low_exponent, high_exponent + 1))


#: Default histogram edges: quarter-decades spanning 1e-9 .. 1e9.
DEFAULT_EDGES = log_spaced_edges()


def _check_value(name: str, value: float) -> float:
    """One observation as a float, or ``ValueError``.

    Observations must be finite and non-negative (durations, counts,
    q-errors — everything the pipeline buckets is); NaN/inf/negative
    values raise instead of silently poisoning sums and quantiles,
    matching the ``qerror`` input contract.
    """
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(
            f"metric {name!r} cannot record {value!r}; observations "
            "must be finite and non-negative")
    return value


def _accumulate(partials: list[float], value: float) -> None:
    """Shewchuk exact accumulation (``math.fsum``'s core step).

    ``partials`` holds non-overlapping floats whose exact sum equals
    everything ever added, so the rendered total is a pure function of
    the observation *multiset* — float ``+=`` is not associative, and a
    naive running sum would leak thread interleaving into the last bits
    of every snapshot.
    """
    i = 0
    for y in partials:
        x = value
        if abs(x) < abs(y):
            x, y = y, x
        high = x + y
        low = y - (high - x)
        if low:
            partials[i] = low
            i += 1
        value = high
    partials[i:] = [value]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc({amount}))")
        self._value += amount

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-serialisable state."""
        return {"kind": "counter", "value": self._value}


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self._value = float(value)

    @property
    def value(self) -> float:
        """Last recorded level."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-serialisable state."""
        return {"kind": "gauge", "value": self._value}


class _Slot:
    """Bucket counts, count, exact sum, min and max of some observations."""

    __slots__ = ("counts", "count", "partials", "min", "max")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.count = 0
        self.partials: list[float] = []
        self.min = math.inf
        self.max = -math.inf

    def add(self, index: int, value: float) -> None:
        self.counts[index] += 1
        self.count += 1
        _accumulate(self.partials, value)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "_Slot") -> None:
        if not other.count:
            return
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        for partial in other.partials:
            _accumulate(self.partials, partial)
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @classmethod
    def merged(cls, slots: Iterable["_Slot"], n_buckets: int) -> "_Slot":
        total = cls(n_buckets)
        for slot in slots:
            total.merge(slot)
        return total

    @property
    def sum(self) -> float:
        """The exact observation total, correctly rounded once."""
        return math.fsum(self.partials)

    def quantile(self, edges: tuple[float, ...], q: float) -> float | None:
        """Upper edge of the bucket holding rank ``ceil(q * count)``,
        clamped to the observed max (``None`` when empty)."""
        if self.count == 0:
            return None
        rank = math.ceil(q * self.count)
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                upper = edges[i] if i < len(edges) else self.max
                return float(min(upper, self.max))
        return float(self.max)

    def summary(self, edges: tuple[float, ...]) -> dict:
        """count/sum/min/max and the non-empty buckets as ``[le, n]``."""
        buckets = [["+Inf" if i == len(edges) else repr(edges[i]), count]
                   for i, count in enumerate(self.counts) if count]
        return {"count": self.count, "sum": self.sum,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "buckets": buckets}


class _Series:
    """One label combination: a ring of per-tick slots (the newest
    last) plus the ticks that have left the ring."""

    __slots__ = ("ring", "retired")

    def __init__(self, n_buckets: int, window_ticks: int | None) -> None:
        self.ring: deque[_Slot] = deque([_Slot(n_buckets)],
                                        maxlen=window_ticks)
        self.retired = _Slot(n_buckets)

    def advance(self, n_buckets: int) -> None:
        if len(self.ring) == self.ring.maxlen:
            self.retired.merge(self.ring[0])
        self.ring.append(_Slot(n_buckets))


class Histogram:
    """Streaming histogram over fixed, pre-declared bucket edges.

    Bucket ``i`` counts observations ``v <= edges[i]`` (and greater than
    the previous edge); one overflow bucket catches values above the
    last edge.  Count, exact sum, min and max are tracked per series.

    Parameters
    ----------
    name:
        Dotted lowercase metric name (``serve.request.seconds``).
    edges:
        Bucket upper bounds; the quarter-decade defaults unless given.
    label_names:
        Ordered label dimensions every observation must supply, e.g.
        ``("model", "cache")``.  Empty for an unlabeled histogram.
    window_ticks:
        ``None`` for a purely cumulative histogram.  Otherwise how many
        logical ticks the sliding window spans; the current tick
        counts, so a window of 8 covers the 7 completed ticks plus
        everything recorded since the last :meth:`advance`.
    """

    def __init__(self, name: str,
                 edges: tuple[float, ...] = DEFAULT_EDGES,
                 label_names: Iterable[str] = (),
                 window_ticks: int | None = None) -> None:
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError(
                f"histogram {name!r} needs strictly increasing edges")
        if window_ticks is not None and window_ticks < 1:
            raise ValueError(
                f"histogram {name!r} needs window_ticks >= 1, got "
                f"{window_ticks}")
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        self.label_names = tuple(label_names)
        self.window_ticks = window_ticks
        self._label_set = frozenset(self.label_names)
        self._edge_array = np.asarray(self.edges)
        self._n_buckets = len(self.edges) + 1
        self._series: dict[tuple[str, ...], _Series] = {}
        self._lock = threading.Lock()
        self._tick = 0
        if not self.label_names:
            self._series[()] = _Series(self._n_buckets, window_ticks)

    @property
    def config(self) -> dict:
        """The fields a registry lookup must agree with."""
        return {"edges": self.edges, "label_names": self.label_names,
                "window_ticks": self.window_ticks}

    @property
    def tick(self) -> int:
        """How many times this histogram has advanced."""
        return self._tick

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if labels.keys() != self._label_set:
            raise ValueError(
                f"histogram {self.name!r} takes labels "
                f"{list(self.label_names)}, got {sorted(labels)}")
        return tuple(str(labels[name]) for name in self.label_names)

    def _series_for(self, labels: Mapping[str, object]) -> _Series:
        """The series of ``labels``, created on first use."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(self._n_buckets,
                                                     self.window_ticks)
            return series

    def record(self, value: float, **labels: str) -> None:
        """Record one observation into the current tick's slot."""
        value = _check_value(self.name, value)
        index = bisect.bisect_left(self.edges, value)
        series = self._series_for(labels)
        with self._lock:
            series.ring[-1].add(index, value)

    def record_many(self, values: Union[np.ndarray, Iterable[float]],
                    **labels: str) -> None:
        """Record a batch of observations into one series.

        Validation and bucketing are vectorized; the exact sum adds the
        values one by one.  A batch with any NaN/inf/negative value
        raises and records nothing.
        """
        arr = np.asarray(values, dtype=np.float64).reshape(-1)
        if arr.size == 0:
            return
        if not np.all(np.isfinite(arr)) or bool(np.any(arr < 0.0)):
            raise ValueError(
                f"metric {self.name!r} cannot record a batch with "
                "NaN/inf/negative values; observations must be finite "
                "and non-negative")
        series = self._series_for(labels)
        batch = _Slot(self._n_buckets)
        batch.counts = np.bincount(
            np.searchsorted(self._edge_array, arr, side="left"),
            minlength=self._n_buckets).tolist()
        batch.count = int(arr.size)
        for value in arr.tolist():
            _accumulate(batch.partials, value)
        batch.min, batch.max = float(arr.min()), float(arr.max())
        with self._lock:
            series.ring[-1].merge(batch)

    def advance(self) -> int:
        """Start a new tick: the oldest slot leaves each series' window
        (a histogram without a window only counts the tick)."""
        with self._lock:
            self._tick += 1
            if self.window_ticks is not None:
                for series in self._series.values():
                    series.advance(self._n_buckets)
            return self._tick

    def _window(self, labels: Mapping[str, str]) -> _Slot:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            ring = series.ring if series is not None else ()
            return _Slot.merged(ring, self._n_buckets)

    def window_count(self, **labels: str) -> int:
        """Observations inside the window for ``labels`` (all of them,
        without a window)."""
        return self._window(labels).count

    def quantile(self, q: float, **labels: str) -> float | None:
        """The window's pXX for ``labels``, or ``None`` when empty (see
        the module docs for the bucket rule)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        return self._window(labels).quantile(self.edges, q)

    def _views(self) -> list[tuple[tuple[str, ...], _Slot, _Slot]]:
        """``(key, window, cumulative)`` per series, sorted by key."""
        with self._lock:
            views = []
            for key in sorted(self._series):
                series = self._series[key]
                window = _Slot.merged(series.ring, self._n_buckets)
                cumulative = _Slot.merged((window, series.retired),
                                          self._n_buckets)
                views.append((key, window, cumulative))
            return views

    @property
    def count(self) -> int:
        """Total observations over every series."""
        return sum(cumulative.count for _, _, cumulative in self._views())

    @property
    def sum(self) -> float:
        """Exact total of every observation, rounded once."""
        return math.fsum(partial for _, _, cumulative in self._views()
                         for partial in cumulative.partials)

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        count = self.count
        return self.sum / count if count else 0.0

    def snapshot(self) -> dict:
        """JSON-serialisable state, byte-stable per observation multiset.

        Every series carries its ``labels`` as a mapping plus its
        cumulative count/sum/min/max and non-empty buckets (the overflow
        bucket as ``le = "+Inf"``); a windowed histogram adds each
        series' ``window`` (the same fields plus p50/p95/p99) and the
        histogram's ``window_ticks`` and ``tick``.
        """
        series = []
        for key, window, cumulative in self._views():
            doc = {"labels": dict(zip(self.label_names, key)),
                   **cumulative.summary(self.edges)}
            if self.window_ticks is not None:
                doc["window"] = {**window.summary(self.edges),
                                 "p50": window.quantile(self.edges, 0.50),
                                 "p95": window.quantile(self.edges, 0.95),
                                 "p99": window.quantile(self.edges, 0.99)}
            series.append(doc)
        snapshot = {"kind": "histogram", "labels": list(self.label_names),
                    "series": series}
        if self.window_ticks is not None:
            snapshot["window_ticks"] = self.window_ticks
            snapshot["tick"] = self.tick
        return snapshot


class SloTracker(Histogram):
    """A service-level objective over one scalar signal.

    An SLO is a windowed histogram with one edge, the target: its first
    bucket counts the *good* observations (``value <= target``), its
    overflow bucket the *bad* ones.

    Parameters
    ----------
    name:
        Dotted lowercase SLO name (``serve.latency.slo``).
    target:
        The good/bad bound (latency in seconds, q-error as a ratio, …).
    objective:
        Fraction of observations that must be good (0.99 = "99 % of
        requests answer under the bound").
    short_ticks / long_ticks:
        Burn-rate windows, in logical ticks.  The short window catches
        fast regressions (a bad deploy); the long window, slow drift.

    The **burn rate** over a window is the window's bad fraction
    divided by the error budget ``1 - objective``: 1.0 means the budget
    is being spent exactly as fast as sustainable, >1 means a breach is
    coming.  Multiwindow alerting fires when *both* exceed a factor.
    """

    def __init__(self, name: str, target: float, objective: float = 0.99,
                 short_ticks: int = 3, long_ticks: int = 12) -> None:
        if not math.isfinite(float(target)) or float(target) <= 0.0:
            raise ValueError(
                f"slo {name!r} needs a positive finite target, got "
                f"{target!r}")
        if not 0.0 < objective < 1.0:
            raise ValueError(
                f"slo {name!r} needs objective in (0, 1), got {objective}")
        if short_ticks < 1 or long_ticks < short_ticks:
            raise ValueError(
                f"slo {name!r} needs 1 <= short_ticks <= long_ticks, got "
                f"{short_ticks}/{long_ticks}")
        super().__init__(name, (float(target),),
                         window_ticks=int(long_ticks))
        self.target = float(target)
        self.objective = float(objective)
        self.short_ticks = int(short_ticks)
        self.long_ticks = int(long_ticks)

    @property
    def config(self) -> dict:
        """The fields a registry lookup must agree with."""
        return {"target": self.target, "objective": self.objective,
                "short_ticks": self.short_ticks,
                "long_ticks": self.long_ticks}

    def observe(self, value: float) -> bool:
        """Record one observation; returns whether it was good."""
        self.record(value)
        return float(value) <= self.target

    def _windows(self) -> tuple[_Slot, _Slot, _Slot, int]:
        """``(short, long, cumulative, tick)`` under one lock."""
        with self._lock:
            series = self._series[()]
            ring = list(series.ring)
            n_buckets = self._n_buckets
            return (_Slot.merged(ring[-self.short_ticks:], n_buckets),
                    _Slot.merged(ring, n_buckets),
                    _Slot.merged([*ring, series.retired], n_buckets),
                    self._tick)

    def _rate(self, slot: _Slot) -> float:
        if slot.count == 0:
            return 0.0
        return (slot.counts[1] / slot.count) / (1.0 - self.objective)

    def burn_rate(self, window: str = "short") -> float:
        """Error-budget burn rate over the named window (0.0 if empty)."""
        if window not in ("short", "long"):
            raise ValueError(
                f"window must be 'short' or 'long', got {window!r}")
        short, long, _, _ = self._windows()
        return self._rate(short if window == "short" else long)

    def snapshot(self) -> dict:
        """Byte-stable JSON-serialisable state."""
        short, long, cumulative, tick = self._windows()
        return {
            "kind": "slo",
            "target": self.target,
            "objective": self.objective,
            "tick": tick,
            "good_total": cumulative.counts[0],
            "bad_total": cumulative.counts[1],
            "windows": {
                name: {"ticks": ticks, "good": slot.counts[0],
                       "bad": slot.counts[1], "burn_rate": self._rate(slot)}
                for name, ticks, slot in (
                    ("short", self.short_ticks, short),
                    ("long", self.long_ticks, long))},
        }


class MetricsRegistry:
    """Get-or-create store of named metrics with one tick source.

    Lookups are cheap enough for per-batch call sites.  Reusing a name
    with a different metric kind, or with a different configuration
    (histogram edges, labels or window; SLO target, objective or burn
    windows), is a programming error and raises.  :meth:`advance_all`
    is the single place a logical tick happens, so every window moves
    in lockstep and cross-metric comparisons stay meaningful.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()
        self._tick = 0

    @property
    def tick(self) -> int:
        """How many times :meth:`advance_all` has run."""
        return self._tick

    def _get_or_create(self, name: str, kind: type, factory,
                       config: dict | None = None):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory()
        if type(metric) is not kind:
            raise ValueError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}")
        if config is not None:
            existing = metric.config
            differing = [field for field, value in config.items()
                         if existing[field] != value]
            if differing:
                raise ValueError(
                    f"metric {name!r} already exists with different "
                    f"{', '.join(differing)}")
        return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, edges: tuple[float, ...] | None = None,
                  label_names: Iterable[str] = (),
                  window_ticks: int | None = None) -> Histogram:
        """The histogram named ``name`` (created on first use; see
        :class:`Histogram` for the parameters, ``edges=None`` meaning
        the defaults)."""
        config = {"edges": (DEFAULT_EDGES if edges is None
                            else tuple(float(e) for e in edges)),
                  "label_names": tuple(label_names),
                  "window_ticks": window_ticks}
        return self._get_or_create(name, Histogram,
                                   lambda: Histogram(name, **config), config)

    def slo(self, name: str, target: float, objective: float = 0.99,
            short_ticks: int = 3, long_ticks: int = 12) -> SloTracker:
        """The SLO tracker named ``name`` (created on first use; see
        :class:`SloTracker` for the parameters)."""
        config = {"target": float(target), "objective": float(objective),
                  "short_ticks": int(short_ticks),
                  "long_ticks": int(long_ticks)}
        return self._get_or_create(name, SloTracker,
                                   lambda: SloTracker(name, **config),
                                   config)

    def advance_all(self) -> int:
        """Advance every histogram and SLO one logical tick; returns
        the registry's tick."""
        with self._lock:
            self._tick += 1
            tick = self._tick
            metrics = [metric for metric in self._metrics.values()
                       if isinstance(metric, Histogram)]
        for metric in metrics:
            metric.advance()
        return tick

    def names(self) -> tuple[str, ...]:
        """Registered metric names, sorted."""
        with self._lock:
            return tuple(sorted(self._metrics))

    def snapshot(self) -> dict:
        """name -> metric snapshot, in sorted-name order."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in items}

    def to_json(self) -> str:
        """Deterministic JSON rendering of :meth:`snapshot`."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=2)

    def write_json(self, path: Path) -> None:
        """Write the summary as indented JSON (byte-stable per stream)."""
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    def reset(self) -> None:
        """Drop every metric and the tick (tests and benchmark repeats
        use this)."""
        with self._lock:
            self._metrics.clear()
            self._tick = 0


#: Process-global registry the instrumented pipeline records into.
_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the global registry; returns it."""
    global _registry
    _registry = registry
    return registry
