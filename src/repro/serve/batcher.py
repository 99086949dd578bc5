"""Micro-batching executor for concurrent estimate requests.

Learned estimators answer a batch of ``n`` queries far cheaper than
``n`` single queries: the columnar compile → encode featurization and
the model's matrix forward pass amortise per-call dispatch (this repo's
``BENCH_featurize.json`` measures the gap at ~an order of magnitude).
A serving process therefore wants *micro-batching*, and here batches
form naturally: the worker thread blocks for a first request, takes
every request already queued behind it without waiting, and dispatches
them through one batch function call, with each caller receiving its
own future.  Requests that arrive while a batch executes form the next
one, so a lone request never waits for company and batches grow only
with the load.  A batch holds at most the requests in flight, which the
service's admission bound (``max_inflight``) caps.  In the service the
batch function is the serving pipeline's execute stage
(:meth:`~repro.serve.fused.EstimatePipeline.execute`), and the items
are requests already resolved in their callers' threads.

Correctness contract: batch featurization is bitwise-identical to the
scalar path and the models predict row-wise, so a request's result does
not depend on which batch it happened to ride in —
``tests/serve/test_batcher.py`` stress-asserts this.  A bad statement
never rides a batch: the service resolves each request in its caller's
thread, where malformed SQL and statements the featurizer rejects
raise.  So a batch function that raises has hit a fault, not a bad
input, and its exception fails every future in the batch.

The worker thread emits ``serve.batch.collect`` (the non-blocking
drain) / ``serve.batch.execute`` spans and records every dispatched
batch size into the ``serve.batch.size`` histogram.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable, Sequence

from repro import obs

__all__ = ["MicroBatcher", "BatcherClosedError"]


class BatcherClosedError(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after the batcher closed."""


class _Request:
    """One submitted item and the future its caller is waiting on.

    ``trace_id`` carries the submitting request's trace context across
    the thread hop into the worker (the batch-execute span links every
    trace it serves); ``batch_id`` is stamped by the worker when the
    request's batch dispatches, so the caller can attribute its request
    event to the batch that answered it.
    """

    __slots__ = ("item", "future", "trace_id", "batch_id")

    def __init__(self, item: Any, trace_id: int | None = None) -> None:
        self.item = item
        self.future: Future = Future()
        self.trace_id = trace_id
        self.batch_id: int | None = None


#: Queue sentinel that tells the worker to finish and exit.  ``close``
#: queues it under the lock ``submit`` checks, so it is always the last
#: item the queue ever holds.
_SHUTDOWN = object()


class MicroBatcher:
    """Batches concurrent requests for one batch function.

    Parameters
    ----------
    estimate_batch:
        The vectorized estimate function mapping a list of submitted
        items to a sequence of estimates, one per item.
        :class:`~repro.serve.server.EstimationService` passes
        :meth:`~repro.serve.fused.EstimatePipeline.execute`; an
        estimator's own ``estimate_batch`` works over queries too.
    """

    def __init__(self,
                 estimate_batch: Callable[[list], Sequence[float]]) -> None:
        self._estimate_batch = estimate_batch
        self._queue: queue.Queue = queue.Queue()
        self._batch_seq = 0
        self._closed = False
        self._close_lock = threading.Lock()
        self._worker = threading.Thread(target=self._run,
                                        name="repro-serve-batcher",
                                        daemon=True)
        self._worker.start()

    def submit(self, item: Any) -> Future:
        """Enqueue one item; returns the future carrying its estimate.

        The future resolves to a ``float`` once the batch containing the
        item executes, or raises what ``estimate_batch`` raised for the
        whole batch.  Raises :class:`BatcherClosedError` once the
        batcher has been closed — requests accepted *before* close are
        always drained, never dropped.
        """
        return self.submit_request(item).future

    def submit_request(self, item: Any,
                       trace_id: int | None = None) -> _Request:
        """Enqueue one item; returns the full request handle.

        Like :meth:`submit` but exposes the :class:`_Request` itself:
        ``request.future`` carries the estimate and, once resolved,
        ``request.batch_id`` identifies the dispatched batch the item
        rode in.  ``trace_id`` joins the request's trace to that batch's
        execute span (a ``links`` span attribute).
        """
        with self._close_lock:
            if self._closed:
                raise BatcherClosedError(
                    "batcher is closed; no new requests accepted")
            request = _Request(item, trace_id=trace_id)
            self._queue.put(request)
        return request

    def close(self) -> None:
        """Refuse new requests, execute every one already submitted,
        and join the worker; idempotent."""
        # The join happens outside the lock: holding _close_lock while
        # waiting for the worker would stall every submit() (and a
        # concurrent close()) for the full drain time.
        with self._close_lock:
            if not self._closed:
                self._closed = True
                self._queue.put(_SHUTDOWN)
        self._worker.join()

    def __enter__(self) -> "MicroBatcher":
        """Context-manager support (closing on exit)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close on context exit."""
        self.close()
        return False

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            shutdown = self._collect(batch)
            self._execute(batch)
            if shutdown:
                return

    def _collect(self, batch: list) -> bool:
        """Append every request already queued behind ``batch[0]``.

        Never waits.  Returns ``True`` when the shutdown sentinel was
        taken too (it is queued last, so the batch is then the final
        one and the caller exits after it).
        """
        with obs.span("serve.batch.collect") as sp:
            try:
                while True:
                    batch.append(self._queue.get_nowait())
            except queue.Empty:
                pass
            shutdown = batch[-1] is _SHUTDOWN
            if shutdown:
                batch.pop()
            if sp is not None:
                sp.set_attribute("n_collected", len(batch))
        return shutdown

    def _execute(self, batch: list) -> None:
        """Dispatch one collected batch and resolve its futures.

        Stamps every request with the dispatched batch's id and links
        the execute span to each request's trace (one batch serves many
        traces; the stitched Chrome export draws a flow arrow per link).
        """
        registry = obs.get_registry()
        registry.counter("serve.batches_total").inc()
        registry.histogram("serve.batch.size").record(len(batch))
        self._batch_seq += 1
        batch_id = self._batch_seq
        links = sorted({request.trace_id for request in batch
                        if request.trace_id is not None})
        for request in batch:
            request.batch_id = batch_id
        try:
            with obs.span("serve.batch.execute", n_queries=len(batch),
                          metric="serve.batch.execute.seconds",
                          batch_id=batch_id, links=links):
                estimates = list(self._estimate_batch(
                    [request.item for request in batch]))
        except Exception as exc:  # repro: ignore[RPR103] — forwarded to futures
            for request in batch:
                request.future.set_exception(exc)
            return
        for request, estimate in zip(batch, estimates):
            request.future.set_result(float(estimate))
