"""Micro-batching executor: coalesce many callers into one batched ``localize``.

Per-request model inference pays the full Python/NumPy dispatch overhead for
every single fingerprint; the batched prediction path amortizes it across the
whole batch.  :class:`MicroBatcher` exploits that for serving throughput:
requests from many callers (e.g. the threads of the HTTP server) queue up and
a background flusher drains them as *one* batched call whenever

* ``max_batch`` fingerprints have accumulated, or
* the oldest queued request has waited ``max_wait_ms``, or
* the queue went *quiescent* — no new request arrived within a short poll
  interval — so waiting longer could not grow the batch (this is what keeps
  added latency near zero under light load: while one batch computes, new
  arrivals queue up and become the next batch, so the batch size adapts to
  the arrival rate instead of to an artificial timer).

Rows are concatenated and split back in strict arrival order, so each
caller gets exactly its rows' slice of ``batch_fn`` applied to the batch the
flusher formed.  That equals ``localize_fn(x)`` bit for bit only for
row-independent models such as KNN; for CALLOC the last bits of
``error_estimate`` depend on the batch size and on the row's position in it.

Callers on an event loop use :meth:`MicroBatcher.submit_async`: its asyncio
future is resolved on the caller's loop, and a flush wakes each loop once
for all of its requests in the batch (one ``call_soon_threadsafe``), not
once per request.

The batcher is generic over the flush target: pass
``service.localize`` for a single model or
``functools.partial(gateway.localize, endpoint)`` for one gateway endpoint
(batches must never mix endpoints — different models disagree on feature
dimensionality and semantics).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace
from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    import asyncio

    from ..api import LocalizationResult
    from ..obs.trace import Span

__all__ = ["BatchStats", "MicroBatcher"]

#: Flush-size histogram boundaries (fingerprints per batched call).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass
class _Pending:
    features: np.ndarray
    #: A ``concurrent.futures.Future``, or an ``asyncio.Future`` of ``loop``.
    future: "Future | asyncio.Future"
    enqueued: float
    #: Span live in the submitting thread, re-attached by the flusher so the
    #: batched flush nests under the request that opened the batch.
    trace_parent: "Optional[Span]" = None
    #: The event loop that owns ``future`` (``None`` for sync callers).
    loop: Optional[asyncio.AbstractEventLoop] = None


#: A request's outcome: its result slice, or the error it raised.
_Outcome = Tuple[Optional["LocalizationResult"], Optional[BaseException]]


class BatchStats:
    """Flush counters of one :class:`MicroBatcher`.

    A thin view over ``repro_batch_*`` registry series (labeled by
    endpoint), keeping ``as_dict()`` byte-compatible with the pre-registry
    dataclass.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        endpoint: str = "",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.endpoint = endpoint or "_unnamed"
        label = {"endpoint": self.endpoint}
        self._requests = self.registry.counter(
            "repro_batch_requests_total",
            "Requests submitted to the micro-batcher", ("endpoint",),
        ).labels(**label)
        self._fingerprints = self.registry.counter(
            "repro_batch_fingerprints_total",
            "Fingerprints flushed through batched calls", ("endpoint",),
        ).labels(**label)
        self._batches = self.registry.counter(
            "repro_batches_total", "Batched flush calls", ("endpoint",),
        ).labels(**label)
        self._sizes = self.registry.histogram(
            "repro_batch_size",
            "Fingerprints per flushed batch", ("endpoint",),
            buckets=_BATCH_SIZE_BUCKETS,
        ).labels(**label)
        self.max_batch_size = 0
        #: Bounded window of recent flush sizes (a long-lived server must not
        #: accumulate one entry per batch forever).
        self.batch_sizes: deque = deque(maxlen=1024)

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def fingerprints(self) -> int:
        return int(self._fingerprints.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    def record_request(self) -> None:
        self._requests.inc()

    def record_batch(self, rows: int) -> None:
        self._batches.inc()
        self._fingerprints.inc(int(rows))
        self._sizes.observe(int(rows))
        self.batch_sizes.append(int(rows))
        self.max_batch_size = max(self.max_batch_size, int(rows))

    def as_dict(self) -> Dict[str, Any]:
        batches = self.batches
        mean = self.fingerprints / batches if batches else None
        return {
            "requests": self.requests,
            "fingerprints": self.fingerprints,
            "batches": batches,
            "mean_batch_size": round(mean, 3) if mean is not None else None,
            "max_batch_size": self.max_batch_size if batches else None,
        }


class MicroBatcher:
    """Queue requests and flush them as one batched ``localize`` call.

    Parameters
    ----------
    localize_fn:
        Callable taking one ``(n, num_aps)`` feature array and returning a
        :class:`~repro.api.LocalizationResult` for it.
    max_batch:
        Flush as soon as this many fingerprints are queued (a single request
        larger than ``max_batch`` still flushes as one batch — requests are
        never split).
    max_wait_ms:
        Flush at the latest this long after the *oldest* queued request
        arrived.  This is an upper bound; a quiescent queue flushes after a
        single poll interval (a tenth of ``max_wait_ms``, clamped to
        [0.05 ms, 1 ms]) without waiting out the deadline.
    """

    def __init__(
        self,
        localize_fn: Callable[[np.ndarray], "LocalizationResult"],
        max_batch: int = 64,
        max_wait_ms: float = 5.0,
        batch_fn: Optional[Callable[[np.ndarray], "LocalizationResult"]] = None,
        registry: Optional[MetricsRegistry] = None,
        endpoint: str = "",
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.localize_fn = localize_fn
        #: Function used for combined batch flushes.  A failed batch flush is
        #: retried per request through ``localize_fn``, so callers whose
        #: backend keeps failure metrics (the gateway) can pass a
        #: stats-suppressed variant here to avoid counting each failure twice.
        self.batch_fn = batch_fn if batch_fn is not None else localize_fn
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self._poll_s = min(1e-3, max(5e-5, self.max_wait_s / 10.0))
        self.stats = BatchStats(registry=registry, endpoint=endpoint)
        self._queue_depth = self.stats.registry.gauge(
            "repro_batch_queue_depth",
            "Fingerprints currently queued for flushing", ("endpoint",),
        ).labels(endpoint=self.stats.endpoint)
        self._queue: "deque[_Pending]" = deque()
        #: Fingerprints currently queued (a running count, kept under _lock).
        self._queued_rows = 0
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self._flusher = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True
        )
        self._flusher.start()

    # -- client side ----------------------------------------------------
    def submit(self, features: Sequence) -> "Future[LocalizationResult]":
        """Enqueue one request; the future resolves to its own result slice."""
        future: Future = Future()
        self._enqueue(features, future, None)
        return future

    def submit_async(self, features: Sequence) -> "asyncio.Future[LocalizationResult]":
        """:meth:`submit` for a coroutine: await the returned future.

        Must be called on a running event loop; the future belongs to that
        loop and is resolved on it.  Cancelling it (a client that went away)
        only drops this request's answer.
        """
        # Imported here, not at module level: batch-only processes import
        # this module without ever loading asyncio.
        import asyncio

        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._enqueue(features, future, loop)
        return future

    def _enqueue(
        self,
        features: Sequence,
        future: "Future | asyncio.Future",
        loop: Optional[asyncio.AbstractEventLoop],
    ) -> None:
        array = np.asarray(features, dtype=np.float64)
        if array.ndim == 1:
            array = array[None, :]
        with self._lock:
            if self._closed:
                raise RuntimeError("MicroBatcher is closed")
            self._queue.append(
                _Pending(array, future, time.perf_counter(), trace.current(), loop)
            )
            self._queued_rows += array.shape[0]
            self.stats.record_request()
            self._queue_depth.set(self._queued_rows)
            # Wake the flusher only on transitions it cares about (queue was
            # empty, or the batch just filled); intermediate arrivals are
            # picked up by its poll loop.  Under heavy concurrency this
            # avoids one context switch per request.
            if len(self._queue) == 1 or self._queued_rows >= self.max_batch:
                self._wakeup.notify()

    def localize(self, features: Sequence) -> "LocalizationResult":
        """Blocking convenience around :meth:`submit`."""
        return self.submit(features).result()

    # -- flusher --------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closed:
                    self._wakeup.wait()
                if self._closed and not self._queue:
                    return
                # Wait (briefly) for the batch to fill: never past the oldest
                # request's deadline, and only while requests keep arriving —
                # a queue that stayed flat for one poll interval flushes
                # immediately instead of idling out the deadline.
                deadline = self._queue[0].enqueued + self.max_wait_s
                while (
                    self._queued_rows < self.max_batch
                    and not self._closed
                    and (remaining := deadline - time.perf_counter()) > 0
                ):
                    rows_before = self._queued_rows
                    self._wakeup.wait(timeout=min(remaining, self._poll_s))
                    if self._queued_rows == rows_before:
                        break
                batch: List[_Pending] = []
                rows = 0
                while self._queue and (not batch or rows < self.max_batch):
                    item = self._queue.popleft()
                    batch.append(item)
                    rows += item.features.shape[0]
                self._queued_rows -= rows
                self._queue_depth.set(self._queued_rows)
            # The flusher thread has no ambient trace context of its own;
            # re-enter the context of the request that opened the batch so
            # the flush span nests under it.
            with trace.attach(batch[0].trace_parent):
                with trace.span(
                    "serve.batch.flush",
                    endpoint=self.stats.endpoint,
                    requests=len(batch),
                    batch_size=rows,
                ):
                    self._flush(batch)

    def _flush(self, batch: List[_Pending]) -> None:
        try:
            features = np.concatenate([item.features for item in batch], axis=0)
            result = self.batch_fn(features)
        except Exception:
            # One bad request (e.g. a mismatched fingerprint width) must
            # neither kill the flusher thread nor fail its batch-mates:
            # degrade to per-request calls so each caller gets its own
            # result or its own error.
            outcomes = [self._localize_one(item) for item in batch]
        else:
            self.stats.record_batch(features.shape[0])
            outcomes = []
            start = 0
            for item in batch:
                stop = start + item.features.shape[0]
                outcomes.append((_slice_result(result, start, stop), None))
                start = stop
        _settle(batch, outcomes)

    def _localize_one(self, item: _Pending) -> _Outcome:
        if item.future.cancelled():
            return None, None  # caller cancelled while queued; never delivered
        try:
            result = self.localize_fn(item.features)
        except Exception as error:
            return None, error
        self.stats.record_batch(item.features.shape[0])
        return result, None

    # -- lifecycle ------------------------------------------------------
    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Drain the queue and stop the flusher thread."""
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
        self._flusher.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _settle(batch: List[_Pending], outcomes: List[_Outcome]) -> None:
    """Hand every request of a flushed batch its outcome.

    Sync futures are resolved right here.  Loop-bound futures are grouped by
    loop and resolved *on* it, with one ``call_soon_threadsafe`` per loop
    and batch.  A caller may have cancelled its future (e.g. after a
    ``result()`` timeout, or a client disconnect); delivering into it would
    raise ``InvalidStateError`` and kill the flusher, so cancelled futures
    are skipped.
    """
    by_loop: Dict[asyncio.AbstractEventLoop, List[Tuple[asyncio.Future, _Outcome]]] = {}
    for item, outcome in zip(batch, outcomes):
        if item.loop is not None:
            by_loop.setdefault(item.loop, []).append((item.future, outcome))
        elif item.future.set_running_or_notify_cancel():
            _resolve(item.future, outcome)
    for loop, deliveries in by_loop.items():
        try:
            loop.call_soon_threadsafe(_deliver, deliveries)
        except RuntimeError:
            pass  # the loop closed mid-flush (shutdown): nobody awaits these


def _deliver(deliveries: List[Tuple[asyncio.Future, _Outcome]]) -> None:
    """Resolve one loop's share of a flush (runs on that loop)."""
    for future, outcome in deliveries:
        if not future.done():  # done here means cancelled by its caller
            _resolve(future, outcome)


def _resolve(future: "Future | asyncio.Future", outcome: _Outcome) -> None:
    result, error = outcome
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)


def _slice_result(result: "LocalizationResult", start: int, stop: int):
    """One request's slice of a batched :class:`LocalizationResult`."""
    from ..api import LocalizationResult

    return LocalizationResult(
        labels=result.labels[start:stop],
        coordinates=result.coordinates[start:stop],
        error_estimate=result.error_estimate[start:stop],
        probabilities=(
            result.probabilities[start:stop]
            if result.probabilities is not None
            else None
        ),
        guard_flags=(
            result.guard_flags[start:stop]
            if result.guard_flags is not None
            else None
        ),
        served_ref=result.served_ref,
    )
