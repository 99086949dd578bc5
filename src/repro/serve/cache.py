"""Thread-safe LRU caches for the serving layer.

Two caches with different keys and granularities, both bounded LRU
maps built on one locked core (:class:`_LruCache`):

* :class:`EstimateCache` — exact-match results.  Production query
  streams are heavily repetitive — the same dashboard, ORM, or prepared
  statement issues the same text over and over — and a cardinality
  estimate is a pure function of the query (Equation 4), so caching is
  always sound.  The cache keys on the **request's SQL text** as
  received: the service probes it before fingerprinting or parsing, so
  a hit costs one dict probe.  Identical text parses to an identical
  query, so the key is exact; two spellings of one query are two
  entries, which costs hits, never correctness.
* :class:`ParseCache` — prepared statements.  Keys are SQL
  *fingerprints* (:func:`repro.sql.parser.fingerprint_sql` — the
  statement text with numeric literals masked), so a parameterized
  statement's thousandth instance reuses the compiled plan, or the
  rejection, its first instance produced
  (:class:`~repro.serve.fused.Statement`) instead of re-running the
  tokenizer, the recursive descent and the plan compile.

The two form the serving pipeline's cache ladder: exact SQL text →
estimate (everything), fingerprint → statement (parse and compile).
Batches probe each cache once with :meth:`_LruCache.lookup_many` (one
lock acquisition, one counter increment per outcome).

Hit/miss/eviction counts are mirrored into the process-global
:mod:`repro.obs.metrics_runtime` registry (``serve.cache.*`` /
``serve.parse_cache.*``), so the ``/metrics`` endpoint exports them
alongside the rest of the serving metrics.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock

from repro import obs

__all__ = ["EstimateCache", "ParseCache", "PARSE_CACHE_SIZE"]

#: Parse-cache capacity in statements.  Every deployment runs this
#: one value; the estimate cache is the tunable one (``--cache-size``).
PARSE_CACHE_SIZE = 512


class _LruCache:
    """A bounded, thread-safe LRU map with mirrored hit/miss counters.

    ``max_size=0`` disables caching entirely: every lookup misses, no
    entry is stored, and no counters move.
    Subclasses set ``_metric_prefix`` to the global-registry counter
    namespace (``<prefix>.hits`` / ``.misses`` / ``.evictions``).
    """

    _metric_prefix = "serve.cache"

    def __init__(self, max_size: int) -> None:
        if max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size}")
        self._max_size = max_size
        self._entries: OrderedDict = OrderedDict()
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Metric names resolve once here from the subclass's literal
        # prefix; call sites must pass pre-resolved names (RPR110 keeps
        # dynamically built strings out of metric lookups).
        self._hits_metric = self._metric_prefix + ".hits"
        self._misses_metric = self._metric_prefix + ".misses"
        self._evictions_metric = self._metric_prefix + ".evictions"

    @property
    def max_size(self) -> int:
        """Configured capacity (0 = caching disabled)."""
        return self._max_size

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self._max_size > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key):
        """The cached value for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency.  Both outcomes are counted
        (locally and in the global metrics registry); a disabled cache
        counts nothing.
        """
        return self.lookup_many((key,))[0]

    def lookup_many(self, keys) -> list:
        """Cached values for ``keys`` in order, ``None`` for each miss.

        One lock acquisition for the whole sequence and one registry
        increment per outcome, so a batch pays per-key only the dict
        probe.  Each key counts as one hit or one miss, exactly as
        :meth:`lookup` would count it.
        """
        if not self._max_size:
            return [None] * len(keys)
        entries = self._entries
        with self._lock:
            values = [entries.get(key) for key in keys]
            hits = 0
            for key, value in zip(keys, values):
                if value is not None:
                    entries.move_to_end(key)
                    hits += 1
            misses = len(values) - hits
            self._hits += hits
            self._misses += misses
        registry = obs.get_registry()
        if hits:
            registry.counter(self._hits_metric).inc(hits)
        if misses:
            registry.counter(self._misses_metric).inc(misses)
        return values

    def store(self, key, value) -> None:
        """Insert (or refresh) a value, evicting the LRU entry if full."""
        self.store_many(((key, value),))

    def store_many(self, items) -> None:
        """Insert (or refresh) ``(key, value)`` pairs in order under one
        lock, evicting LRU entries while over capacity."""
        if not self._max_size:
            return
        entries = self._entries
        evicted = 0
        with self._lock:
            for key, value in items:
                entries[key] = value
                entries.move_to_end(key)
            while len(entries) > self._max_size:
                entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted:
            obs.get_registry().counter(self._evictions_metric).inc(evicted)

    def stats(self) -> dict:
        """Local hit/miss/eviction/size counters (JSON-serialisable)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._entries),
                "max_size": self._max_size,
            }

    def clear(self) -> None:
        """Drop every entry (counters keep their values)."""
        with self._lock:
            self._entries.clear()


class EstimateCache(_LruCache):
    """Request SQL text -> estimate (``serve.cache.*`` counters).

    Values are stored as ``float``; see the module docstring for why
    exact-match caching of estimates is always sound.
    """

    _metric_prefix = "serve.cache"

    def __init__(self, max_size: int = 1024) -> None:
        super().__init__(max_size)

    def store_many(self, items) -> None:
        """Insert (or refresh) ``(sql, estimate)`` pairs as floats."""
        super().store_many((key, float(estimate)) for key, estimate in items)


class ParseCache(_LruCache):
    """SQL fingerprint -> prepared statement
    (``serve.parse_cache.*`` counters, :data:`PARSE_CACHE_SIZE` entries).

    Sits in front of the parser on the request path: an instance of a
    previously seen statement skips tokenization, recursive descent and
    plan compilation entirely.  Every stored statement was planned
    from :func:`repro.sql.parser.parse_template` of its key — the
    descent :func:`~repro.sql.parser.parse_query` runs, with slot
    indices for literals — so a hit encodes exactly the query a fresh
    parse would build.
    """

    _metric_prefix = "serve.parse_cache"

    def __init__(self) -> None:
        super().__init__(PARSE_CACHE_SIZE)
