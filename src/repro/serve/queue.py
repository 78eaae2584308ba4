"""Request queue and micro-batcher for the serving runtime.

Incoming requests (each a small image batch from one user) are appended to
a FIFO :class:`RequestQueue`; the :class:`MicroBatcher` drains up to
``batch_window`` pending requests at a time, which the session then pushes
through one stacked edge/cloud round trip.  FIFO draining preserves arrival
order, which is what makes the batched engine consume the shared noise
generator exactly as the sequential reference path would — the foundation
of the bit-for-bit parity guarantee.

Requests optionally carry a latency SLO (a deadline relative to
submission) and a session id; the deadline-aware scheduler
(:mod:`repro.serve.scheduler`) closes batching windows on deadline slack,
and the multi-worker engine (:mod:`repro.serve.engine`) preserves response
ordering *within* a session.  The queue takes an injectable clock so the
whole scheduling stack can be driven deterministically in virtual time
(:mod:`repro.serve.replay`) as well as against the wall clock.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Hashable, Iterator

import numpy as np

from repro.errors import ConfigurationError


class InferenceRequest:
    """One pending request.

    A slotted record built once per submission, so enqueueing stays cheap
    on the serving hot path; ``rows`` is fixed at construction.

    Attributes:
        request_id: Session-unique, monotonically increasing id.
        images: ``(n, C, H, W)`` image batch (single images are stored with
            the batch dimension restored).
        submitted_at: Submission time on the queue's clock (for latency
            accounting and deadline math); defaults to the wall clock.
        slo_seconds: Optional latency SLO; the request's deadline is
            ``submitted_at + slo_seconds``.
        session_id: Optional user-session key; the serving engine releases
            results of one session in submission order.
        rows: Samples this request contributes to a micro-batch.
    """

    __slots__ = ("request_id", "images", "submitted_at", "slo_seconds",
                 "session_id", "rows")

    def __init__(
        self,
        request_id: int,
        images: np.ndarray,
        submitted_at: float | None = None,
        slo_seconds: float | None = None,
        session_id: Hashable | None = None,
    ) -> None:
        self.request_id = request_id
        self.images = images
        self.submitted_at = (
            time.perf_counter() if submitted_at is None else submitted_at
        )
        self.slo_seconds = slo_seconds
        self.session_id = session_id
        self.rows = len(images)

    @property
    def deadline(self) -> float | None:
        """Absolute deadline on the queue's clock (``None`` without SLO)."""
        if self.slo_seconds is None:
            return None
        return self.submitted_at + self.slo_seconds

    @property
    def ordering_key(self) -> Hashable:
        """Delivery-ordering domain of this request.

        Requests sharing a key are released in submission order; a
        sessionless request orders only against itself.  The live engine
        and the virtual-time simulator must gate on the *same* key, which
        is why it lives here.
        """
        if self.session_id is None:
            return ("solo", self.request_id)
        return ("session", self.session_id)


class RequestQueue:
    """FIFO queue assigning request ids at submission.

    Args:
        clock: Time source stamped onto requests; defaults to the wall
            clock, replaced with a virtual clock in scheduling simulations.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._pending: deque[InferenceRequest] = deque()
        self._next_id = 0
        self._clock = clock or time.perf_counter

    def submit(
        self,
        images: np.ndarray,
        *,
        slo_seconds: float | None = None,
        session_id: Hashable | None = None,
    ) -> int:
        """Enqueue one request; returns its id.

        A 3-D ``(C, H, W)`` array is treated as a single image.
        Validation is a handful of attribute checks: the serving loop
        submits once per request.
        """
        if type(images) is not np.ndarray:
            images = np.asarray(images)
        ndim = images.ndim
        if ndim == 3:
            images = images[None]
        elif ndim != 4:
            raise ConfigurationError(
                f"requests must be (C, H, W) or (n, C, H, W) images, "
                f"got shape {images.shape}"
            )
        if not images.shape[0]:
            raise ConfigurationError("cannot submit an empty request")
        if slo_seconds is not None and slo_seconds <= 0:
            raise ConfigurationError(
                f"a latency SLO must be positive, got {slo_seconds}"
            )
        request_id = self._next_id
        self._next_id = request_id + 1
        self._pending.append(
            InferenceRequest(
                request_id, images, self._clock(), slo_seconds, session_id
            )
        )
        return request_id

    @property
    def submitted(self) -> int:
        """Total requests ever submitted (the autoscaler's arrival counter)."""
        return self._next_id

    def peek(self) -> InferenceRequest | None:
        """The head request without dequeuing (``None`` when empty)."""
        return self._pending[0] if self._pending else None

    def pop_window(self, max_requests: int) -> list[InferenceRequest]:
        """Dequeue up to ``max_requests`` requests in arrival order."""
        if max_requests < 1:
            raise ConfigurationError(
                f"window must be >= 1 request, got {max_requests}"
            )
        pending = self._pending
        if len(pending) <= max_requests:
            window = list(pending)
            pending.clear()
            return window
        popleft = pending.popleft
        return [popleft() for _ in range(max_requests)]

    def requeue_front(self, requests: list[InferenceRequest]) -> None:
        """Return already-popped requests to the head of the queue.

        Used by the micro-batcher when a row cap splits a window; the
        requests re-enter in their original arrival order, preserving FIFO.
        """
        for request in reversed(requests):
            self._pending.appendleft(request)

    def __iter__(self) -> Iterator[InferenceRequest]:
        """Pending requests in arrival order (for deadline scans)."""
        return iter(self._pending)

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)


class MicroBatcher:
    """Groups pending requests into micro-batches.

    Args:
        queue: The request source.
        batch_window: Maximum requests stacked per micro-batch.
        max_rows: Optional cap on total image rows per micro-batch (bounds
            the stacked activation's memory for multi-image requests); a
            single oversized request still ships alone rather than starve.
        isolate_sessions: Batch-composition policy.  ``False`` (the
            ``mixed`` policy) stacks any pending requests together —
            maximal occupancy, but one micro-batch mixes activations of
            independent users, the cross-user surface the shuffling
            analyses warn about.  ``True`` closes every micro-batch at the
            first session boundary, so a batch only ever carries one
            session's requests (sessionless requests each form their own
            batch).  Both policies drain the queue as a FIFO *prefix*, so
            noise draws stay in arrival order and bit parity is unaffected
            — only batch composition (and therefore occupancy/throughput
            and the mixing index) changes.
    """

    def __init__(
        self,
        queue: RequestQueue,
        batch_window: int = 8,
        max_rows: int | None = None,
        isolate_sessions: bool = False,
    ) -> None:
        if batch_window < 1:
            raise ConfigurationError(
                f"batch window must be >= 1, got {batch_window}"
            )
        if max_rows is not None and max_rows < 1:
            raise ConfigurationError(f"max_rows must be >= 1, got {max_rows}")
        self.queue = queue
        self.batch_window = batch_window
        self.max_rows = max_rows
        self.isolate_sessions = isolate_sessions

    def next_batch(self) -> list[InferenceRequest]:
        """The next micro-batch (empty list when the queue is drained)."""
        window = self.queue.pop_window(self.batch_window)
        if not window or (self.max_rows is None and not self.isolate_sessions):
            return window
        taken: list[InferenceRequest] = []
        rows = 0
        head_key = window[0].ordering_key
        for index, request in enumerate(window):
            if taken and (
                (self.isolate_sessions and request.ordering_key != head_key)
                or (self.max_rows is not None and rows + request.rows > self.max_rows)
            ):
                # Put the remainder back in order for the next batch.
                self.queue.requeue_front(window[index:])
                break
            taken.append(request)
            rows += request.rows
        return taken
