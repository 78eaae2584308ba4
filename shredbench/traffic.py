"""The benchmark's own traffic: inputs, arrival times, sessions, and the
open-loop load generator.

Everything here derives from the ``--seed`` argument through NumPy's
``SeedSequence``, and none of it calls ``repro.serve.loadgen``, so a change
to the library's load generator cannot change the workload.  The
generator takes its clock and sleep as arguments, which lets the self-tests run it
in virtual time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Protocol, Sequence

import numpy as np


def stream(seed: int, tag: str) -> np.random.Generator:
    """An independent generator for one named part of a workload."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), *(ord(char) for char in tag)])
    )


def input_indices(seed: int, n: int, pool: int) -> np.ndarray:
    """Which of ``pool`` candidate images each of ``n`` requests sends."""
    return stream(seed, "inputs").integers(0, pool, size=n)


def poisson_offsets(seed: int, tag: str, n: int, rate_rps: float) -> np.ndarray:
    """Due times (seconds after the phase starts) of ``n`` Poisson
    arrivals at ``rate_rps``; the first request is due at 0."""
    gaps = stream(seed, tag).exponential(1.0 / rate_rps, size=n)
    gaps[0] = 0.0
    return np.cumsum(gaps)


def zipf_sessions(
    seed: int, tag: str, n: int, n_sessions: int, exponent: float
) -> np.ndarray:
    """Session id of each request: an unbounded Zipf(``exponent``) rank,
    with ranks beyond ``n_sessions`` folded back uniformly onto the
    population (the convention of the repo's own traces, so the hottest
    session's share matches theirs)."""
    rng = stream(seed, tag)
    ranks = rng.zipf(exponent, size=n) - 1
    overflow = ranks >= n_sessions
    ranks[overflow] = rng.integers(0, n_sessions, size=int(overflow.sum()))
    return ranks


def supported_quantile(n: int, want: float, beyond: int = 10) -> float:
    """The highest quantile not above ``want`` that leaves at least
    ``beyond`` of ``n`` samples strictly above it (nearest rank)."""
    if n <= beyond:
        raise ValueError(f"{n} samples cannot support any quantile with {beyond} beyond it")
    return min(want, (n - beyond) / n)


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a share
    ``q`` of the samples at or below it."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def chunk_rates(start: float, done: np.ndarray, chunk: int) -> np.ndarray:
    """Completions per second over successive runs of ``chunk``
    completions, the first measured from ``start``.  Their median is a
    delivered rate that one host stall cannot drag down."""
    ordered = np.sort(np.asarray(done, dtype=np.float64))
    marks = np.concatenate([[start], ordered[chunk - 1 :: chunk]])
    return chunk / np.diff(marks)


class OpenLoopTarget(Protocol):
    """What the load generator needs from a serving engine."""

    def submit(self, images, *, slo_seconds=None, session_id=None) -> int: ...

    def pump(self) -> list[int]: ...

    def result(self, request_id: int) -> np.ndarray: ...

    def next_action_time(self) -> float | None: ...

    @property
    def in_flight(self) -> int: ...


@dataclass
class OpenLoopResult:
    """One open-loop phase, indexed by request position in the phase."""

    due: np.ndarray  #: absolute due time of each request
    submitted: np.ndarray  #: when the generator called submit
    delivered: np.ndarray  #: when pump first returned the request
    deliveries: np.ndarray  #: how often pump returned the request
    request_ids: list[int]  #: the target's id for each request
    outputs: list  #: the logits collected for each request

    @property
    def latency(self) -> np.ndarray:
        """Due time to delivery, seconds (a stall delays later requests'
        due-based latency even if they were submitted late)."""
        return self.delivered - self.due

    @property
    def lag(self) -> np.ndarray:
        """How late the generator submitted each request, seconds."""
        return self.submitted - self.due

    @property
    def span_seconds(self) -> float:
        """First due time to last delivery."""
        return float(np.nanmax(self.delivered) - self.due[0])


def drive_open_loop(
    target: OpenLoopTarget,
    images: Sequence[np.ndarray],
    offsets: np.ndarray,
    sessions: Sequence[Hashable],
    slo_seconds: float,
    clock: Callable[[], float],
    sleep: Callable[[float], None],
    *,
    poll_seconds: float = 2e-4,
    give_up_seconds: float = 60.0,
) -> OpenLoopResult:
    """Send ``images[i]`` when ``offsets[i]`` seconds have passed, on one
    thread, whatever the target's backlog, then pump until every request
    was delivered (or ``give_up_seconds`` after the last due time),
    collecting each request's result as it is delivered.

    While batches are in flight the generator polls every ``poll_seconds``;
    otherwise it sleeps until the next due time or the target's next
    window close.  Sleeping releases the interpreter lock for the
    target's worker thread.
    """
    n = len(offsets)
    start = clock()
    due = start + np.asarray(offsets, dtype=np.float64)
    submitted = np.full(n, np.nan)
    delivered = np.full(n, np.nan)
    deliveries = np.zeros(n, dtype=np.int64)
    position: dict[int, int] = {}
    request_ids: list[int] = []
    outputs: list = [None] * n
    outstanding = 0
    i = 0
    deadline = due[-1] + give_up_seconds
    while i < n or outstanding:
        now = clock()
        while i < n and due[i] <= now:
            submitted[i] = clock()
            request_id = target.submit(
                images[i], slo_seconds=slo_seconds, session_id=sessions[i]
            )
            position[request_id] = i
            request_ids.append(request_id)
            outstanding += 1
            i += 1
        done = target.pump()
        if done:
            now = clock()
            for request_id in done:
                index = position[request_id]
                if deliveries[index] == 0:
                    delivered[index] = now
                    outputs[index] = target.result(request_id)
                    outstanding -= 1
                deliveries[index] += 1
            continue
        now = clock()
        if now > deadline:
            break
        wake = due[i] if i < n else now + poll_seconds
        close = target.next_action_time()
        if close is not None:
            wake = min(wake, close)
        if target.in_flight:
            wake = min(wake, now + poll_seconds)
        delay = wake - now
        if delay > 0:
            sleep(delay)
    return OpenLoopResult(due, submitted, delivered, deliveries, request_ids, outputs)
