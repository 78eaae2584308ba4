"""Virtual-time replay of the serving scheduler.

The deadline-aware policy in :mod:`repro.serve.scheduler` is a pure
function of the queue and a caller-supplied ``now``, which makes it
possible to evaluate *scheduling* questions — does deadline-awareness beat
fixed windows on SLO attainment? what do queue-age histograms look like
under bursty arrivals? — deterministically, without running the neural
network or sleeping through a real arrival process.

:func:`simulate_schedule` replays a timed request trace through the exact
:class:`~repro.serve.scheduler.AdaptiveBatcher` code the live engine runs,
modelling ``workers`` parallel servers with a caller-supplied service-time
model, and returns the same :class:`~repro.serve.metrics.ServingMetrics`
the live engine produces.  Per-session ordered delivery is modelled too: a
request's delivery time is clamped to its session predecessor's.

The property suite (``tests/serve/test_scheduler_properties.py``) and the
``serving_slo`` section of the serving benchmark are both built on this:
identical traces through the deadline-aware and fixed-window policies,
compared on attainment at equal work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.metrics import ServingMetrics
from repro.serve.queue import InferenceRequest, RequestQueue
from repro.serve.scheduler import AdaptiveBatcher


@dataclass(frozen=True)
class TimedRequest:
    """One request of a replayable trace.

    Attributes:
        arrival: Submission time (virtual seconds from stream start).
        rows: Image rows the request carries.
        slo_seconds: Optional latency SLO.
        session_id: Optional user-session key (ordered delivery).
    """

    arrival: float
    rows: int = 1
    slo_seconds: float | None = None
    session_id: Hashable | None = None


class VirtualClock:
    """A clock that only moves when the driver moves it (never backwards)."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def seek(self, instant: float) -> None:
        """Jump forward to ``instant`` (no-op when already past it)."""
        self.now = max(self.now, float(instant))

    def advance(self, seconds: float) -> None:
        """Move forward by ``seconds``."""
        if seconds < 0:
            raise ConfigurationError(
                f"a clock cannot move backwards (advance by {seconds})"
            )
        self.now += float(seconds)


@dataclass
class ScheduleResult:
    """Outcome of one simulated schedule.

    Attributes:
        metrics: The live engine's metrics object, filled with virtual
            times (``wall_seconds`` is the makespan).
        makespan: Stream start to last delivery, in virtual seconds.
        completions: ``(request_id, delivery_time)`` per request, in
            delivery order.
    """

    metrics: ServingMetrics
    makespan: float
    completions: list[tuple[int, float]]

    @property
    def throughput(self) -> float:
        """Requests per virtual second over the whole schedule."""
        if self.makespan <= 0:
            return 0.0
        return self.metrics.requests / self.makespan


def random_trace(
    rng: np.random.Generator,
    n_requests: int,
    *,
    mean_gap: float = 0.004,
    slo_choices: Sequence[float | None] = (None, 0.020, 0.060),
    n_sessions: int = 4,
    max_rows: int = 1,
) -> list[TimedRequest]:
    """A jittered arrival trace with mixed SLOs and mixed sessions.

    Arrival gaps are exponential (Poisson process) with ``mean_gap``
    seconds; each request draws an SLO uniformly from ``slo_choices``
    (``None`` entries mean best-effort), a session uniformly among
    ``n_sessions``, and a row count in ``[1, max_rows]``.
    """
    if n_requests < 1:
        raise ConfigurationError(f"need >= 1 request, got {n_requests}")
    trace: list[TimedRequest] = []
    instant = 0.0
    for _ in range(n_requests):
        instant += float(rng.exponential(mean_gap))
        slo = slo_choices[int(rng.integers(0, len(slo_choices)))]
        trace.append(
            TimedRequest(
                arrival=instant,
                rows=int(rng.integers(1, max_rows + 1)),
                slo_seconds=slo,
                session_id=f"user-{int(rng.integers(0, n_sessions))}",
            )
        )
    return trace


def simulate_schedule(
    trace: Sequence[TimedRequest],
    *,
    batch_window: int = 8,
    workers: int = 1,
    deadline_aware: bool = True,
    batch_timeout: float = 0.010,
    service_model: Callable[[list[InferenceRequest]], float] | None = None,
    service_estimate: float | None = None,
    max_rows: int | None = None,
    isolate_sessions: bool = False,
) -> ScheduleResult:
    """Replay ``trace`` through the batching policy in virtual time.

    Args:
        trace: Timed requests (sorted internally by arrival).
        batch_window / batch_timeout / deadline_aware / max_rows /
            isolate_sessions: The policy knobs, exactly as on the live
            engine (``isolate_sessions`` caps batches at session
            boundaries; the result metrics' ``mixing_index`` then reads
            zero).
        workers: Parallel servers; a formed batch starts on the earliest
            free one (batches are formed by the policy regardless of
            worker availability, mirroring the engine's dispatch queue).
        service_model: Virtual seconds one micro-batch takes on a worker;
            default ``1 ms + 0.5 ms per row``.
        service_estimate: Slack estimate handed to the batcher; defaults
            to the service model evaluated on a full window of
            single-image requests.

    Returns:
        A :class:`ScheduleResult` with engine-compatible metrics.
    """
    if workers < 1:
        raise ConfigurationError(f"need >= 1 worker, got {workers}")
    if service_model is None:
        service_model = lambda window: 1e-3 + 5e-4 * sum(r.rows for r in window)

    clock = VirtualClock()
    queue = RequestQueue(clock=clock)
    if service_estimate is None:
        probe = [
            InferenceRequest(request_id=-1, images=np.zeros((1, 1, 1, 1)))
            for _ in range(batch_window)
        ]
        service_estimate = float(service_model(probe))
    batcher = AdaptiveBatcher(
        queue,
        batch_window,
        max_rows=max_rows,
        batch_timeout=batch_timeout,
        service_estimate=service_estimate,
        deadline_aware=deadline_aware,
        isolate_sessions=isolate_sessions,
    )

    arrivals = sorted(trace, key=lambda request: request.arrival)
    metrics = ServingMetrics()
    worker_free = [0.0] * workers
    last_delivery: dict[Hashable, float] = {}
    completions: list[tuple[int, float]] = []
    index = 0

    def submit_due() -> None:
        nonlocal index
        while index < len(arrivals) and arrivals[index].arrival <= clock.now:
            timed = arrivals[index]
            queue.submit(
                np.zeros((timed.rows, 1, 1, 1), dtype=np.float32),
                slo_seconds=timed.slo_seconds,
                session_id=timed.session_id,
            )
            index += 1

    def dispatch(window: list[InferenceRequest]) -> None:
        formed = clock.now
        for request in window:
            metrics.queue_ages.append(formed - request.submitted_at)
        metrics.record_mixing(
            [request.session_id for request in window],
            [request.rows for request in window],
        )
        worker = int(np.argmin(worker_free))
        start = max(formed, worker_free[worker])
        service = float(service_model(window))
        end = start + service
        worker_free[worker] = end
        metrics.micro_batches += 1
        metrics.occupancies.append(len(window))
        metrics.requests += len(window)
        metrics.samples += sum(request.rows for request in window)
        metrics.record_worker(worker, service)
        for request in window:
            key = request.ordering_key
            delivery = max(end, last_delivery.get(key, end))
            last_delivery[key] = delivery
            metrics.record_completion(
                delivery - request.submitted_at, request.slo_seconds
            )
            completions.append((request.request_id, delivery))

    while index < len(arrivals) or queue:
        close = batcher.close_time()
        next_arrival = arrivals[index].arrival if index < len(arrivals) else None
        if close is not None and (next_arrival is None or close <= next_arrival):
            clock.seek(close)
            window = batcher.next_batch(clock.now)
            if not window:  # numeric ties: force the close we scheduled
                window = batcher.next_batch(clock.now, flush=True)
            dispatch(window)
        else:
            clock.seek(next_arrival)
            submit_due()

    makespan = max((t for _, t in completions), default=0.0)
    metrics.wall_seconds = makespan
    return ScheduleResult(
        metrics=metrics, makespan=makespan, completions=completions
    )
