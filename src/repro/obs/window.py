"""Sliding-window monitors, as views over the one histogram type.

The cumulative view of a histogram answers "what happened since the
process started" — the wrong question for a serving fleet, where what
matters is *stability over time*: is the q-error p95 of the last few
minutes still inside the gate, did the latest model rollout move it.
Windows are therefore part of
:class:`~repro.obs.metrics_runtime.Histogram` itself: pass
``window_ticks`` and each labeled series keeps a ring of per-tick
slots, advanced on a logical tick by
:meth:`~repro.obs.metrics_runtime.MetricsRegistry.advance_all`, with
windowed p50/p95/p99 merged on read and the leaving ticks folded into
the cumulative view.  Burn rates live in
:class:`~repro.obs.metrics_runtime.SloTracker`, on the same ticks.

:class:`WindowedHistogram` is that histogram built standalone, outside
any registry, with a window of 8 ticks unless told otherwise and
``observe`` as its recording verb; ``repro bench obs`` and perfbench's
ledger time the telemetry hot path through it.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.metrics_runtime import DEFAULT_EDGES, Histogram

__all__ = ["WindowedHistogram"]


class WindowedHistogram(Histogram):
    """A :class:`~repro.obs.metrics_runtime.Histogram` with a window.

    ``observe(value, **labels)`` is :meth:`Histogram.record`.
    """

    def __init__(self, name: str, label_names: Iterable[str] = (),
                 window_ticks: int = 8,
                 edges: tuple[float, ...] = DEFAULT_EDGES) -> None:
        super().__init__(name, edges, label_names=label_names,
                         window_ticks=window_ticks)

    observe = Histogram.record
