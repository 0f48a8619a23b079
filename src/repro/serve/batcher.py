"""Micro-batching engine of the inference service.

Concurrent HTTP requests land in one queue; a single batcher thread drains
it into *micro-batches*.  Batching is opportunistic: the batcher takes the
oldest queued request plus every whole request queued behind it that fits
the ``MAX_BATCH_GRAPHS`` graph budget, and never waits for more to arrive.
A lone request on an idle server pays no queueing delay, and under load the
queue fills while the previous batch runs, so batches grow with the arrival
rate.  Each batch runs the flat-batch hot path once — ``encode_many`` over
every graph in the batch, one ``decision_scores`` similarity pass against
the shared read-only class-vector matrix — and distributes the per-request
slices back to the waiting request threads.

Inference work therefore serializes through one thread (which is where the
NumPy kernels want to be anyway) while wall-clock cost is amortized across
every request the batch coalesced.

The batcher snapshots the :class:`~repro.serve.model_manager.ModelHandle`
once per batch, so a hot swap never splits a batch across model versions.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from typing import Callable, Sequence

import numpy as np

from repro.graphs.graph import Graph
from repro.hdc.classifier import topk_from_scores
from repro.serve.model_manager import ModelHandle

__all__ = [
    "MAX_BATCH_GRAPHS",
    "REQUEST_TIMEOUT_SECONDS",
    "BatchResult",
    "MicroBatcher",
    "ServerStats",
    "ServiceClosedError",
]

#: Graph budget of one micro-batch.  Whole requests are admitted while they
#: fit; a single request larger than the budget still runs as one batch.
MAX_BATCH_GRAPHS = 64

#: Seconds a request waits for its batch before it fails with a timeout.
REQUEST_TIMEOUT_SECONDS = 30.0

#: Ring-buffer length for latency percentiles; old samples age out so /stats
#: reflects recent traffic, not the whole process lifetime.
LATENCY_WINDOW = 4096


class ServiceClosedError(RuntimeError):
    """The batcher is shutting down and no longer accepts requests."""


class ServerStats:
    """Thread-safe serving counters and latency percentiles for ``/stats``."""

    def __init__(self, window: int = LATENCY_WINDOW) -> None:
        self._lock = threading.Lock()
        self._started_at = time.time()
        self.requests_total = 0
        self.graphs_total = 0
        self.batches_total = 0
        self.errors_total = 0
        self.encode_seconds_total = 0.0
        self.similarity_seconds_total = 0.0
        self._batch_sizes: Counter[int] = Counter()
        self._max_batch_size = 0
        self._max_queue_depth = 0
        self._request_latencies: deque[float] = deque(maxlen=window)
        self._batch_latencies: deque[float] = deque(maxlen=window)

    # ------------------------------------------------------------- recording
    def record_enqueue(self, queue_depth: int) -> None:
        with self._lock:
            self._max_queue_depth = max(self._max_queue_depth, queue_depth)

    def record_batch(
        self,
        *,
        num_requests: int,
        num_graphs: int,
        encode_seconds: float,
        similarity_seconds: float,
        batch_seconds: float,
    ) -> None:
        with self._lock:
            self.batches_total += 1
            self.requests_total += num_requests
            self.graphs_total += num_graphs
            self.encode_seconds_total += encode_seconds
            self.similarity_seconds_total += similarity_seconds
            self._batch_sizes[num_graphs] += 1
            self._max_batch_size = max(self._max_batch_size, num_graphs)
            self._batch_latencies.append(batch_seconds)

    def record_request_latency(self, seconds: float) -> None:
        with self._lock:
            self._request_latencies.append(seconds)

    def record_error(self, count: int = 1) -> None:
        with self._lock:
            self.errors_total += count

    # ------------------------------------------------------------- reporting
    @staticmethod
    def _percentiles(samples: Sequence[float]) -> dict:
        if not samples:
            return {"count": 0, "p50_ms": None, "p99_ms": None, "mean_ms": None}
        array = np.asarray(samples, dtype=np.float64) * 1000.0
        return {
            "count": int(array.size),
            "p50_ms": float(np.percentile(array, 50)),
            "p99_ms": float(np.percentile(array, 99)),
            "mean_ms": float(array.mean()),
        }

    def snapshot(self, queue_depth: int = 0) -> dict:
        """A JSON-ready view of the counters (the ``/stats`` body)."""
        with self._lock:
            batches = self.batches_total
            return {
                "uptime_seconds": time.time() - self._started_at,
                "requests_total": self.requests_total,
                "graphs_total": self.graphs_total,
                "batches_total": batches,
                "errors_total": self.errors_total,
                "queue_depth": queue_depth,
                "max_queue_depth": self._max_queue_depth,
                "batch_sizes": {
                    "mean": (self.graphs_total / batches) if batches else None,
                    "max": self._max_batch_size or None,
                    "histogram": {
                        str(size): count
                        for size, count in sorted(self._batch_sizes.items())
                    },
                },
                "request_latency": self._percentiles(self._request_latencies),
                "batch_latency": self._percentiles(self._batch_latencies),
                "encode_seconds_total": self.encode_seconds_total,
                "similarity_seconds_total": self.similarity_seconds_total,
            }


class BatchResult:
    """What :meth:`MicroBatcher.submit` hands back to a request thread."""

    __slots__ = ("handle", "topk", "batch_size")

    def __init__(
        self, handle: ModelHandle, topk: list[list[tuple]], batch_size: int
    ) -> None:
        self.handle = handle
        self.topk = topk
        self.batch_size = batch_size


class _Pending:
    """One enqueued request waiting for its micro-batch to execute."""

    __slots__ = (
        "graphs",
        "top_k",
        "event",
        "enqueued_at",
        "result",
        "error",
    )

    def __init__(self, graphs: list[Graph], top_k: int) -> None:
        self.graphs = graphs
        self.top_k = top_k
        self.event = threading.Event()
        self.enqueued_at = time.perf_counter()
        self.result: BatchResult | None = None
        self.error: Exception | None = None


class MicroBatcher:
    """Coalesces concurrent prediction requests into flat-batch executions.

    Parameters
    ----------
    model_provider:
        Zero-argument callable returning the live
        :class:`~repro.serve.model_manager.ModelHandle`; called exactly once
        per batch, so every request in a batch is answered by one model
        version.
    """

    def __init__(
        self,
        model_provider: Callable[[], ModelHandle],
        *,
        stats: ServerStats | None = None,
    ) -> None:
        self._model_provider = model_provider
        self.stats = stats if stats is not None else ServerStats()
        self._queue: deque[_Pending] = deque()
        self._not_empty = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # ---------------------------------------------------------------- client
    def queue_depth(self) -> int:
        with self._not_empty:
            return len(self._queue)

    def submit(self, graphs: Sequence[Graph], top_k: int = 1) -> BatchResult:
        """Enqueue one request and block until its batch executed.

        Returns the :class:`BatchResult` carrying the model handle that
        served the batch, the per-graph ranked ``(label, score)`` lists, and
        the size of the coalesced batch.  Raises the batch's failure as-is,
        ``TimeoutError`` if the batch did not finish in
        ``REQUEST_TIMEOUT_SECONDS``, and :class:`ServiceClosedError` after
        :meth:`close`.
        """
        pending = _Pending(list(graphs), int(top_k))
        if not pending.graphs:
            raise ValueError("cannot submit an empty graph batch")
        with self._not_empty:
            if self._closed:
                raise ServiceClosedError("the inference service is shutting down")
            self._queue.append(pending)
            self.stats.record_enqueue(len(self._queue))
            self._not_empty.notify()
        if not pending.event.wait(REQUEST_TIMEOUT_SECONDS):
            # Leave the pending entry for the batcher (it may still complete);
            # the client just stops waiting.
            self.stats.record_error()
            raise TimeoutError(
                "prediction batch did not complete within "
                f"{REQUEST_TIMEOUT_SECONDS} seconds"
            )
        if pending.error is not None:
            raise pending.error
        self.stats.record_request_latency(
            time.perf_counter() - pending.enqueued_at
        )
        assert pending.result is not None
        return pending.result

    def close(self, timeout: float = 5.0) -> None:
        """Stop the batcher thread; queued requests fail with closure."""
        with self._not_empty:
            if self._closed:
                return
            self._closed = True
            self._not_empty.notify_all()
        self._thread.join(timeout)

    # ---------------------------------------------------------------- worker
    def _collect_batch(self) -> list[_Pending] | None:
        """Block for the oldest request, then take every queued one that fits."""
        with self._not_empty:
            while not self._queue and not self._closed:
                self._not_empty.wait()
            if not self._queue:
                return None  # closed and drained
            batch = [self._queue.popleft()]
            total = len(batch[0].graphs)
            while (
                self._queue
                and total + len(self._queue[0].graphs) <= MAX_BATCH_GRAPHS
            ):
                batch.append(self._queue.popleft())
                total += len(batch[-1].graphs)
        return batch

    def _execute(self, batch: list[_Pending]) -> None:
        batch_start = time.perf_counter()
        all_graphs = [graph for pending in batch for graph in pending.graphs]
        try:
            handle = self._model_provider()
            model = handle.model
            encode_start = time.perf_counter()
            encodings = model.encoder.encode_many(all_graphs)
            encode_end = time.perf_counter()
            scores, labels = model.classifier.decision_scores(encodings)
            similarity_seconds = time.perf_counter() - encode_end
        except Exception as error:  # noqa: BLE001 - failures propagate per request
            self.stats.record_error(len(batch))
            for pending in batch:
                pending.error = error
                pending.event.set()
            return
        offset = 0
        for pending in batch:
            rows = scores[offset : offset + len(pending.graphs)]
            pending.result = BatchResult(
                handle=handle,
                topk=topk_from_scores(rows, labels, pending.top_k),
                batch_size=len(all_graphs),
            )
            offset += len(pending.graphs)
            pending.event.set()
        self.stats.record_batch(
            num_requests=len(batch),
            num_graphs=len(all_graphs),
            encode_seconds=encode_end - encode_start,
            similarity_seconds=similarity_seconds,
            batch_seconds=time.perf_counter() - batch_start,
        )

    def _run(self) -> None:
        while True:
            batch = self._collect_batch()
            if batch is None:
                return
            self._execute(batch)
