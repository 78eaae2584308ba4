"""The batched split-inference serving session.

``BatchedInferenceSession`` is the throughput-oriented counterpart of the
sequential :class:`~repro.edge.InferenceSession`: requests are submitted to
a FIFO queue, a micro-batcher stacks up to ``batch_window`` of them, and
each micro-batch costs *one* local forward, *one* batched uplink frame,
*one* remote forward, and *one* downlink frame — instead of per-request
Python dispatch and per-request wire round trips.

Parity contract (enforced by ``tests/serve/test_session_parity.py``): on
the same request stream with the same noise-sampling generator, the batched
session produces **bit-identical logits** to the sequential reference path.
This holds because (a) both paths run the
:class:`~repro.edge.BatchInvariantExecutor`, whose per-row results are
independent of batch geometry, and (b) the edge device draws each
request's noise members in arrival order from the shared generator, so the
sample streams coincide.  Quantised sessions trade that exactness for a
4x smaller uplink (the stacked payload is quantised once per micro-batch).

Python work is per micro-batch, not per request.  ``submit`` builds one
slotted :class:`~repro.serve.queue.InferenceRequest`; ``step`` reads each
per-request column (ids, images, sessions, submission times, SLOs) out
of the closed window by one comprehension, records mixing with one
:meth:`~repro.serve.metrics.ServingMetrics.record_mixing` call and the
queue ages, latencies, SLO tallies, occupancy and counters with one
:meth:`~repro.serve.metrics.ServingMetrics.record_batch` call, and
delivers the logits as row views of the decoded downlink payload with
one dict update.  Beyond those column reads, a request costs an id and a
row view.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from repro.core.sampler import NoiseCollection
from repro.edge.channel import Channel
from repro.edge.costs import cut_cost
from repro.edge.device import CloudServer, EdgeDevice, SessionReport
from repro.edge.protocol import (
    BatchActivationMessage,
    decode_activation_batch,
    decode_prediction_batch,
    encode_activation_batch,
    encode_prediction_batch,
    split_rows,
)
from repro.edge.quantization import QuantizationParams
from repro.errors import ConfigurationError
from repro.models.base import SplittableModel
from repro.serve.metrics import ServingMetrics
from repro.serve.queue import MicroBatcher, RequestQueue
from repro.serve.scheduler import Shuffler


class BatchedInferenceSession:
    """End-to-end split inference with request queueing and micro-batching.

    Args:
        model: The full backbone (used for splitting and cost bookkeeping).
        cut: Cut-point name.
        mean / std: Input normalisation constants.
        noise: Noise collection for the edge device (optional).
        channel: Link model; default is a fast clean link.
        rng: Noise-sampling randomness (shared stream with the sequential
            reference path for parity).
        batch_window: Maximum requests stacked per micro-batch.
        max_rows: Optional cap on image rows per micro-batch.
        quantization: Optional affine code; quantises each stacked uplink
            payload once.
        kernel_backend: Forward-executor backend, selected once here and
            shared by the edge and cloud halves (bit-parity requires one
            backend per deployment; see :mod:`repro.edge.executor`).
        weight_bits: ``8`` runs both halves on int8-quantised weights
            (opt-in ``int8_weights`` IR rewrite).  The sequential
            reference must use the same value — the bit-parity guarantee
            holds *within* a weight regime, never across.
        isolate_sessions: Batch-composition policy (see
            :class:`~repro.serve.queue.MicroBatcher`): ``True`` never
            mixes two sessions in one micro-batch.
        shuffle: Permute rows across sessions inside each closed
            micro-batch (:class:`~repro.serve.scheduler.Shuffler`) before
            the frame is encoded, restoring order from the recorded
            inverse after the cloud half returns.  Shuffling happens
            after noise and quantisation (both row-local) and the
            executor is row-invariant, so the parity contract above is
            preserved bit for bit.
        shuffle_seed: Explicit shuffling-policy seed (default 0).
    """

    def __init__(
        self,
        model: SplittableModel,
        cut: str,
        mean: np.ndarray,
        std: np.ndarray,
        noise: NoiseCollection | None = None,
        channel: Channel | None = None,
        rng: np.random.Generator | None = None,
        batch_window: int = 8,
        max_rows: int | None = None,
        quantization: QuantizationParams | None = None,
        kernel_backend: str = "auto",
        weight_bits: int | None = None,
        isolate_sessions: bool = False,
        shuffle: bool = False,
        shuffle_seed: int | None = None,
    ) -> None:
        local, remote = model.split(cut)
        self.device = EdgeDevice(local, mean, std, noise, rng, quantization,
                                 kernel_backend=kernel_backend,
                                 weight_bits=weight_bits)
        self.server = CloudServer(remote, kernel_backend,
                                  weight_bits=weight_bits)
        self.channel = channel or Channel()
        self.cut = cut
        self.batch_window = batch_window
        self.queue = RequestQueue()
        self.batcher = MicroBatcher(
            self.queue, batch_window, max_rows, isolate_sessions
        )
        self.shuffler = (
            Shuffler(seed=0 if shuffle_seed is None else shuffle_seed)
            if shuffle
            else None
        )
        self._edge_cost = cut_cost(model, cut)
        self._results: dict[int, np.ndarray] = {}
        self.metrics = ServingMetrics()
        # Pre-size executor scratch (and compile native programs) for the
        # planner's chosen window so the first micro-batch pays no
        # allocation or compilation jitter in its latency percentiles.
        activation = self.device.warm((batch_window, *model.input_shape))
        self.server.warm(activation, quantization=quantization)

    # ------------------------------------------------------------------
    # Request lifecycle
    # ------------------------------------------------------------------
    def submit(
        self,
        images: np.ndarray,
        *,
        slo_seconds: float | None = None,
        session_id=None,
    ) -> int:
        """Enqueue one request; returns the id to collect the result with.

        The FIFO session serves strictly in submission order, so an SLO
        here only feeds attainment accounting; deadline-aware scheduling
        is the :class:`~repro.serve.engine.ServingEngine`'s job.
        """
        return self.queue.submit(
            images, slo_seconds=slo_seconds, session_id=session_id
        )

    @property
    def pending(self) -> int:
        """Requests waiting in the queue."""
        return len(self.queue)

    def step(self) -> list[int]:
        """Serve one micro-batch; returns the completed request ids.

        One stacked pass end to end: drain up to ``batch_window`` requests,
        run the local half once, ship one batched activation frame over the
        channel, run the remote half once, ship one batched prediction
        frame back, and demultiplex the logits to their request ids.
        Bookkeeping is per batch: each per-request column is read out by
        one comprehension, and metrics are recorded by one call each.
        """
        window = self.batcher.next_batch()
        if not window:
            return []
        start = time.perf_counter()
        # Every per-request column is read while the window is hot, before
        # the kernels run.
        request_ids = [request.request_id for request in window]
        images = [request.images for request in window]
        rows = [request.rows for request in window]
        sessions = [request.session_id for request in window]
        submitted = [request.submitted_at for request in window]
        slos = [request.slo_seconds for request in window]
        metrics = self.metrics
        metrics.record_mixing(sessions, rows)
        channel = self.channel
        wire_before = channel.stats.simulated_seconds
        message = self.device.forward_batch(images, request_ids)
        permutation = None
        if self.shuffler is not None:
            permutation = self.shuffler.permute(len(message.tensor))
            if permutation is not None:
                message = BatchActivationMessage(
                    request_ids=message.request_ids,
                    splits=message.splits,
                    tensor=permutation.apply(message.tensor),
                    quantization=message.quantization,
                )
                metrics.record_shuffle(sessions)
        uplink = encode_activation_batch(message)
        delivered = decode_activation_batch(channel.transmit(uplink))
        response = self.server.predict_batch(delivered)
        downlink = channel.transmit(encode_prediction_batch(response))
        logits = decode_prediction_batch(downlink).logits
        if permutation is not None:
            logits = permutation.restore(logits)
        now = time.perf_counter()
        self._results.update(zip(request_ids, split_rows(logits, rows)))
        metrics.record_batch(submitted, slos, len(logits), start, now)
        metrics.uplink_bytes += len(uplink)
        metrics.downlink_bytes += len(downlink)
        metrics.wall_seconds += now - start
        metrics.simulated_wire_seconds += (
            channel.stats.simulated_seconds - wire_before
        )
        return request_ids

    def drain(self) -> None:
        """Serve micro-batches until the queue is empty."""
        while self.queue:
            self.step()

    def result(self, request_id: int) -> np.ndarray:
        """Collect (and release) the logits of a completed request."""
        try:
            return self._results.pop(request_id)
        except KeyError:
            raise ConfigurationError(
                f"request {request_id} has no result (still queued, unknown, "
                "or already collected)"
            ) from None

    # ------------------------------------------------------------------
    # Stream convenience API
    # ------------------------------------------------------------------
    def infer_stream(
        self, stream: Iterable[np.ndarray] | Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Submit a whole request stream, drain it, and return per-request
        logits in submission order."""
        ids = [self.submit(images) for images in stream]
        self.drain()
        return [self.result(request_id) for request_id in ids]

    def classify_stream(
        self, stream: Iterable[np.ndarray] | Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """Predicted labels per request, in submission order."""
        return [logits.argmax(axis=1) for logits in self.infer_stream(stream)]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def report(self) -> SessionReport:
        """Sequential-session-compatible traffic/compute accounting."""
        return SessionReport(
            requests=self.metrics.requests,
            uplink_bytes=self.metrics.uplink_bytes,
            downlink_bytes=self.metrics.downlink_bytes,
            simulated_seconds=self.channel.stats.simulated_seconds,
            edge_kilomacs_per_sample=self._edge_cost.kilomacs,
        )
