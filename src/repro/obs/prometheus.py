"""Prometheus text exposition for the obs registry.

The JSON ``/metrics`` endpoint is byte-stable and machine-friendly, but
invisible to the standard scrape ecosystem.  This module renders
:class:`~repro.obs.metrics_runtime.MetricsRegistry` snapshots in the
Prometheus `text exposition format`_ (version 0.0.4):

* counters/gauges — one sample each, ``# TYPE`` annotated;
* histograms — per label series, **cumulative** ``_bucket{le="..."}``
  samples (the snapshot stores per-bucket counts; Prometheus wants
  running totals) plus ``_sum`` and ``_count``;
* a windowed histogram also renders its window as a *summary* family
  named ``<name>_window``: per series ``{quantile="0.5|0.95|0.99"}``
  samples plus ``_sum``/``_count``, so dashboards get sliding
  percentiles directly;
* SLO trackers — ``_good_total``/``_bad_total`` counters and a
  ``_burn_rate{window="short|long"}`` gauge pair.

:func:`render_snapshots` is the one renderer.  It takes snapshots by
source, so the fleet router renders its own registry and every
worker's ``/metrics`` JSON into one page, labelling each sample with
its source (``worker="w0"``, ``worker="router"``); a server renders its
one registry with :func:`render_prometheus`.

Dotted obs names map to Prometheus identifiers by replacing every
``.`` with ``_`` (``serve.requests_total`` → ``serve_requests_total``);
RPR110 pins obs names to ``[a-z0-9_.]`` literals precisely so this
mapping never needs escaping and scrape series never churn.

Rendering is deterministic: families sort by output name, sources by
name, metrics by name, series by label values, and floats print via
``repr`` — identical snapshots expose byte-identical pages.
:func:`parse_exposition` is the strict round-trip validator the tests
and the CI smoke step use; it is a format checker, not a general
Prometheus client.

.. _text exposition format:
   https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from repro.obs.metrics_runtime import MetricsRegistry, get_registry

__all__ = ["render_prometheus", "render_snapshots", "parse_exposition",
           "prometheus_name", "escape_label_value", "CONTENT_TYPE"]

#: The scrape Content-Type for the 0.0.4 text format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$")
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:\\.|[^"\\])*)"')
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def prometheus_name(name: str) -> str:
    """Map a dotted obs metric name to a Prometheus identifier."""
    flat = name.replace(".", "_")
    if not _NAME_RE.match(flat):
        raise ValueError(
            f"metric name {name!r} does not map to a valid Prometheus "
            f"identifier ({flat!r})")
    return flat


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format rules."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _sample(name: str, labels: Mapping[str, str], value: float) -> str:
    if not labels:
        return f"{name} {_format_value(value)}"
    inner = ",".join(f'{key}="{escape_label_value(val)}"'
                     for key, val in labels.items())
    return f"{name}{{{inner}}} {_format_value(value)}"


def _histogram_families(flat: str, snapshot: Mapping,
                        extra: Mapping[str, str]
                        ) -> list[tuple[str, str, list[str]]]:
    lines: list[str] = []
    window_lines: list[str] = []
    for series in snapshot["series"]:
        labels = {name: series["labels"][name]
                  for name in snapshot["labels"]}
        labels.update(extra)
        cumulative = 0
        for le, count in series["buckets"]:
            cumulative += count
            lines.append(_sample(f"{flat}_bucket", {**labels, "le": le},
                                 cumulative))
        if not series["buckets"] or series["buckets"][-1][0] != "+Inf":
            lines.append(_sample(f"{flat}_bucket", {**labels, "le": "+Inf"},
                                 series["count"]))
        lines.append(_sample(f"{flat}_sum", labels, series["sum"]))
        lines.append(_sample(f"{flat}_count", labels, series["count"]))
        window = series.get("window")
        if window is None:
            continue
        for quantile, key in _QUANTILES:
            if window[key] is not None:
                window_lines.append(_sample(
                    f"{flat}_window", {**labels, "quantile": quantile},
                    window[key]))
        window_lines.append(_sample(f"{flat}_window_sum", labels,
                                    window["sum"]))
        window_lines.append(_sample(f"{flat}_window_count", labels,
                                    window["count"]))
    families = [(flat, "histogram", lines)]
    if "window_ticks" in snapshot:
        families.append((f"{flat}_window", "summary", window_lines))
    return families


def _families(name: str, snapshot: Mapping, extra: Mapping[str, str]
              ) -> list[tuple[str, str, list[str]]]:
    """``(family, type, sample lines)`` for one metric's snapshot, with
    the ``extra`` labels on every sample."""
    flat = prometheus_name(name)
    kind = snapshot["kind"]
    if kind in ("counter", "gauge"):
        return [(flat, kind, [_sample(flat, extra, snapshot["value"])])]
    if kind == "histogram":
        return _histogram_families(flat, snapshot, extra)
    if kind == "slo":
        windows = snapshot["windows"]
        return [
            (f"{flat}_good_total", "counter",
             [_sample(f"{flat}_good_total", extra, snapshot["good_total"])]),
            (f"{flat}_bad_total", "counter",
             [_sample(f"{flat}_bad_total", extra, snapshot["bad_total"])]),
            (f"{flat}_burn_rate", "gauge",
             [_sample(f"{flat}_burn_rate", {**extra, "window": window},
                      windows[window]["burn_rate"])
              for window in ("long", "short")]),
        ]
    raise ValueError(f"metric {name!r} has unknown kind {kind!r}")


def render_snapshots(sources: Mapping[str, Mapping],
                     source_label: str | None = None) -> str:
    """Render registry snapshots as one exposition page (trailing
    newline).

    ``sources`` maps a source name to a
    :meth:`~repro.obs.metrics_runtime.MetricsRegistry.snapshot` (or the
    same document read back from ``/metrics`` JSON).  With a
    ``source_label``, every sample gains ``<source_label>="<source>"``;
    without one the source names are not rendered.  Each family's
    ``# TYPE`` line appears once, families in sorted name order, their
    samples in sorted source order; a family whose type differs between
    sources raises ``ValueError``.
    """
    families: dict[str, tuple[str, list[str]]] = {}
    for source in sorted(sources):
        extra = {source_label: source} if source_label else {}
        snapshot = sources[source]
        for name in sorted(snapshot):
            for family, kind, lines in _families(name, snapshot[name],
                                                 extra):
                known, samples = families.setdefault(family, (kind, []))
                if known != kind:
                    raise ValueError(
                        f"family {family!r} is a {known} in one source "
                        f"and a {kind} in {source!r}")
                samples.extend(lines)
    page: list[str] = []
    for family in sorted(families):
        kind, samples = families[family]
        page.append(f"# TYPE {family} {kind}")
        page.extend(samples)
    return "\n".join(page) + "\n" if page else ""


def render_prometheus(registry: MetricsRegistry | None = None) -> str:
    """One registry's exposition page (the global one by default)."""
    registry = registry if registry is not None else get_registry()
    return render_snapshots({"": registry.snapshot()})


def parse_exposition(text: str) -> dict[str, dict]:
    """Strictly parse an exposition page; raises ``ValueError`` on any
    malformed line.

    Returns ``family name -> {"type": ..., "samples": [(name, labels,
    value), ...]}``.  Validation beyond the grammar: every sample must
    belong to a ``# TYPE``-declared family (histogram samples may use
    the ``_bucket``/``_sum``/``_count`` suffixes, summaries
    ``_sum``/``_count``), histogram bucket counts must be cumulative
    (non-decreasing in ``le`` order), and a histogram's ``+Inf`` bucket
    must equal its ``_count``.
    """
    families: dict[str, dict] = {}
    suffix_owner: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            _, _, family, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary"):
                raise ValueError(
                    f"line {lineno}: unknown metric type {kind!r}")
            if family in families:
                raise ValueError(
                    f"line {lineno}: duplicate TYPE for {family!r}")
            families[family] = {"type": kind, "samples": []}
            suffix_owner[family] = family
            if kind in ("histogram", "summary"):
                suffix_owner[f"{family}_sum"] = family
                suffix_owner[f"{family}_count"] = family
            if kind == "histogram":
                suffix_owner[f"{family}_bucket"] = family
            continue
        if line.startswith("#"):
            continue  # HELP/comment lines are legal; we don't emit them.
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        name = match.group("name")
        family = suffix_owner.get(name)
        if family is None:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding TYPE")
        labels: dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            consumed = 0
            for label_match in _LABEL_RE.finditer(label_text):
                labels[label_match.group("name")] = label_match.group("value")
                consumed = label_match.end()
                if (consumed < len(label_text)
                        and label_text[consumed] == ","):
                    consumed += 1
            if consumed != len(label_text):
                raise ValueError(
                    f"line {lineno}: malformed labels: {{{label_text}}}")
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = float("inf")
        elif raw_value == "-Inf":
            value = float("-inf")
        else:
            try:
                value = float(raw_value)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: malformed value {raw_value!r}"
                ) from None
        families[family]["samples"].append((name, labels, value))

    for family, data in families.items():
        if data["type"] != "histogram":
            continue
        # Validate each series group independently: a page merged from
        # several sources (the fleet router's ``worker``-labeled scrape)
        # carries one cumulative bucket run *per label set*, so the
        # cumulativity and +Inf/_count checks group on the non-``le``
        # labels rather than assuming a single unlabeled run.
        buckets: dict[tuple, list[tuple[str | None, float]]] = {}
        counts: dict[tuple, float] = {}
        for name, labels, value in data["samples"]:
            group = tuple(sorted((key, val) for key, val in labels.items()
                                 if key != "le"))
            if name == f"{family}_bucket":
                buckets.setdefault(group, []).append(
                    (labels.get("le"), value))
            elif name == f"{family}_count" and group not in counts:
                counts[group] = value
        for group, run in buckets.items():
            previous = -math.inf
            inf_count = None
            for le, value in run:
                if le is None:
                    raise ValueError(
                        f"histogram {family!r} bucket is missing its "
                        f"le label")
                if value < previous:
                    raise ValueError(
                        f"histogram {family!r} buckets are not cumulative")
                previous = value
                if le == "+Inf":
                    inf_count = value
            if inf_count is None:
                raise ValueError(
                    f"histogram {family!r} has no +Inf bucket")
            if group in counts and counts[group] != inf_count:
                raise ValueError(
                    f"histogram {family!r} +Inf bucket ({inf_count}) does "
                    f"not match _count ({counts[group]})")
    return families
