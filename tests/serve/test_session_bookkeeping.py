"""The batched session's per-batch bookkeeping, checked per request.

``BatchedInferenceSession.step`` records its metrics once per micro-batch
(one call per quantity, not one per request).  These tests replay the
windows a session actually served through the per-request formulas —
``("solo", id)`` / ``("session", key)`` ordering keys, a dict of rows per
key, one latency and one queue age per request — and require the
batch-level path to reproduce them exactly, on a stream that exercises
every branch: sessionless and session requests, multi-row requests, a
``max_rows`` split, ``isolate_sessions`` and shuffling.

They also pin the delivery side: logits handed out by ``result`` must stay
bit-unchanged however many windows are served afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NoiseCollection, SplitInferenceModel
from repro.serve import BatchedInferenceSession


@pytest.fixture(scope="module")
def bundle():
    from repro.config import TINY, Config
    from repro.models import get_pretrained

    return get_pretrained("lenet", Config(scale=TINY))


@pytest.fixture(scope="module")
def collection(bundle):
    split = SplitInferenceModel(bundle.model)
    rng = np.random.default_rng(3)
    collection = NoiseCollection(split.activation_shape)
    for _ in range(4):
        collection.add(
            rng.laplace(0, 0.05, size=split.activation_shape).astype(np.float32),
            accuracy=0.8,
            in_vivo_privacy=0.1,
        )
    return collection


def make_session(bundle, collection, **kwargs):
    return BatchedInferenceSession(
        bundle.model,
        bundle.model.last_conv_cut(),
        np.zeros(1, dtype=np.float32),
        np.ones(1, dtype=np.float32),
        noise=collection,
        rng=np.random.default_rng(7),
        **kwargs,
    )


#: (rows, session id, SLO seconds) per request, in submission order.
MIXED_STREAM = [
    (1, None, None),
    (2, "alice", 10.0),
    (1, "bob", None),
    (3, None, 1e-9),
    (1, "alice", None),
    (2, "carol", 10.0),
    (1, None, None),
    (1, "bob", 1e-9),
    (4, "alice", None),
    (1, None, 10.0),
    (2, "bob", None),
    (1, "carol", None),
    (1, None, None),
    (3, "alice", 10.0),
    (1, None, None),
    (1, "dave", None),
]


def submit_stream(session, bundle, stream):
    images = bundle.test_set.images
    ids, start = [], 0
    for rows, session_id, slo in stream:
        ids.append(
            session.submit(
                images[start : start + rows], slo_seconds=slo, session_id=session_id
            )
        )
        start += rows
    return ids


def record_windows(session):
    """Capture every window the session's micro-batcher hands out."""
    windows = []
    next_batch = session.batcher.next_batch

    def capturing():
        window = next_batch()
        if window:
            windows.append(list(window))
        return window

    session.batcher.next_batch = capturing
    return windows


def per_request_mixing(window):
    """The per-request mixing formula: a dict of rows per ordering key."""
    total = sum(request.rows for request in window)
    own: dict = {}
    for request in window:
        own[request.ordering_key] = own.get(request.ordering_key, 0) + request.rows
    return [(total - own[request.ordering_key]) / total for request in window]


@pytest.mark.parametrize(
    "policy",
    [
        dict(batch_window=5, max_rows=6, shuffle=True, shuffle_seed=3),
        dict(batch_window=4, isolate_sessions=True, shuffle=True),
        dict(batch_window=8),
    ],
    ids=["mixed-max-rows-shuffled", "isolated-shuffled", "mixed-plain"],
)
def test_batch_bookkeeping_matches_per_request_formulas(bundle, collection, policy):
    session = make_session(bundle, collection, **policy)
    windows = record_windows(session)
    ids = submit_stream(session, bundle, MIXED_STREAM)
    session.drain()
    metrics = session.metrics

    served = [request for window in windows for request in window]
    assert [request.request_id for request in served] == ids
    if policy.get("max_rows"):
        assert any(
            len(window) < policy["batch_window"]
            and sum(request.rows for request in window) + following[0].rows
            > policy["max_rows"]
            for window, following in zip(windows, windows[1:])
        ), "the stream must exercise a max_rows split"

    assert metrics.occupancies == [len(window) for window in windows]
    assert metrics.micro_batches == len(windows)
    assert metrics.requests == len(MIXED_STREAM)
    assert metrics.samples == sum(rows for rows, _, _ in MIXED_STREAM)
    assert metrics.mixing_fractions == [
        fraction for window in windows for fraction in per_request_mixing(window)
    ]
    shuffled = [
        window for window in windows if sum(request.rows for request in window) > 1
    ] if policy.get("shuffle") else []
    assert metrics.shuffled_batches == len(shuffled)
    assert metrics.anonymity_sets == [
        len({request.ordering_key for request in window}) for window in shuffled
    ]

    # One latency and one queue age per request, each non-negative and
    # the queue age never above the latency of the same request.
    assert len(metrics.latencies) == len(MIXED_STREAM)
    assert len(metrics.queue_ages) == len(MIXED_STREAM)
    assert all(age >= 0 for age in metrics.queue_ages)
    assert all(
        age <= latency for age, latency in zip(metrics.queue_ages, metrics.latencies)
    )
    slos = [slo for _, _, slo in MIXED_STREAM]
    assert metrics.slo_total == sum(slo is not None for slo in slos)
    assert metrics.slo_met == sum(
        1
        for latency, slo in zip(metrics.latencies, slos)
        if slo is not None and latency <= slo
    )
    assert metrics.slo_met == sum(slo == 10.0 for slo in slos)

    for request_id, (rows, _, _) in zip(ids, MIXED_STREAM):
        assert session.result(request_id).shape == (rows, 10)


def test_isolated_policy_records_no_mixing(bundle, collection):
    session = make_session(bundle, collection, batch_window=4, isolate_sessions=True)
    submit_stream(session, bundle, MIXED_STREAM)
    session.drain()
    assert session.metrics.mixing_fractions == [0.0] * len(MIXED_STREAM)
    assert session.metrics.mixing_index == 0.0


def test_delivered_logits_never_change_after_later_steps(bundle, collection):
    """Results of early windows must not view a buffer later frames reuse."""
    session = make_session(bundle, collection, batch_window=4)
    images = bundle.test_set.images
    early = [session.submit(images[k]) for k in range(8)]
    session.step()
    session.step()
    collected = [session.result(request_id) for request_id in early]
    snapshots = [logits.copy() for logits in collected]
    for round_index in range(40):
        ids = [session.submit(images[(round_index + k) % len(images)]) for k in range(4)]
        assert session.step() == ids
        for request_id in ids:
            session.result(request_id)
    for logits, snapshot in zip(collected, snapshots):
        np.testing.assert_array_equal(logits, snapshot)
        assert logits.tobytes() == snapshot.tobytes()
