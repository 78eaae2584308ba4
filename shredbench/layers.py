"""Per-layer metrics: which library functions the traced run wraps, and
how their spans become the numbers ``BENCHMARK.json`` names.

Each group lists its metrics with units.  Times per micro-batch divide by
the number of ``EdgeDevice.forward_batch`` calls in the phase; ``_us``
metrics of the queue are per call.
"""

from __future__ import annotations

import statistics

import numpy as np

import traffic
from trace import END, NAME, START, TAGS, Tracer, stage_totals, total_under

SETUP_SERVING = {
    "models.get_pretrained_ms": "ms",
    "eval.build_pipeline_ms": "ms",
    "core.sampler.collection_load_ms": "ms",
    "core.pipeline.deploy_ms": "ms",
    "edge.ir.lower_misses": "count",
}
PER_REQUEST = {
    "serve.queue.submit_us": "us",
    "serve.queue.next_batch_us": "us",
    "serve.session.step_self_us": "us",
    "serve.metrics.record_us": "us",
}
EDGE = {
    "edge.device.forward_batch_us": "us",
    "edge.device.predict_batch_us": "us",
    "core.sampler.sample_splits_us": "us",
    "edge.kernel_share": "share",
    "edge.ir.macs_per_row": "count",
}
WIRE = {
    "edge.protocol.encode_us": "us",
    "edge.protocol.decode_us": "us",
    "edge.channel.transmit_us": "us",
    "edge.protocol.uplink_bytes_per_row": "count",
}
PLANE = {
    "serve.scheduler.next_batch_us": "us",
    "serve.scheduler.rows_per_batch": "count",
    "serve.queue.wait_p50_ms": "ms",
    "serve.queue.wait_p99_ms": "ms",
    "serve.controlplane.handoff_ms": "ms",
    "serve.controlplane.return_ms": "ms",
    "serve.controlplane.worker_busy_share": "share",
    "serve.scheduler.permute_us": "us",
    "edge.quantization.quantize_us": "us",
}
TRAINING = {
    "core.split.remote_forward_ms": "ms",
    "core.loss.many_arrays_ms": "ms",
    "nn.tensor.backward_ms": "ms",
    "nn.optim.step_ms": "ms",
    "core.split.accuracy_multi_ms": "ms",
    "core.trainer.self_ms": "ms",
    "core.trainer.rows_per_step": "count",
}
ESTIMATORS = {
    "core.pipeline.accuracy_ms": "ms",
    "privacy.pca_ms": "ms",
    "privacy.ksg_ms": "ms",
    "privacy.knn_counts_ms": "ms",
}
VALIDITY = {
    "tracing_overhead": "share",
    "trace.unattributed_share": "share",
}
#: What every traced run prints, in ``BENCHMARK.json`` order.  A workload
#: that never calls a layer prints 0 for it: no spans, no time.
ALL = {
    **SETUP_SERVING,
    **PER_REQUEST,
    **EDGE,
    **WIRE,
    "tracing_overhead": "share",
    "trace.unattributed_share": "share",
    **PLANE,
    "loadgen.lag_ms": "ms",
    **TRAINING,
    **ESTIMATORS,
}
SETUP_STAGES = (
    "models.get_pretrained",
    "eval.build_pipeline",
    "core.sampler.collection_load",
    "core.pipeline.deploy",
)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def install(tracer: Tracer, workload: str) -> None:
    """Wrap the public functions of the layers ``workload`` runs."""
    if workload == "offline_learn":
        _install_learning(tracer)
    else:
        _install_serving(tracer)


def _install_serving(tracer: Tracer) -> None:
    from repro.core.sampler import NoiseCollection
    from repro.edge import _fastexec, protocol, quantization
    from repro.edge.channel import Channel
    from repro.edge.device import CloudServer, EdgeDevice
    from repro.edge.executor import _NumpyProgram
    from repro.edge.ir import program_costs
    from repro.serve.controlplane import ControlPlane
    from repro.serve.metrics import ServingMetrics
    from repro.serve.queue import MicroBatcher, RequestQueue
    from repro.serve.scheduler import AdaptiveBatcher, BatchPermutation, Shuffler
    from repro.serve.session import BatchedInferenceSession

    macs: dict[int, tuple[object, int]] = {}

    def kernel_tag(args, kwargs, result):
        program = args[0].program
        entry = macs.get(id(program))
        if entry is None:
            entry = macs[id(program)] = (
                program,
                sum(cost.macs for cost in program_costs(program)),
            )
        return entry[1] * args[0].n

    method = tracer.patch_method
    method(RequestQueue, "submit", "serve.queue.submit", tags=lambda a, k, r: r)
    method(MicroBatcher, "next_batch", "serve.queue.next_batch")
    method(AdaptiveBatcher, "next_batch", "serve.scheduler.next_batch")
    method(BatchedInferenceSession, "step", "serve.session.step")
    for name in ("record_completion", "record_mixing", "record_shuffle", "record_worker"):
        method(ServingMetrics, name, "serve.metrics.record")
    method(EdgeDevice, "forward_batch", "edge.device.forward_batch",
           tags=lambda a, k, r: (r.request_ids, int(sum(r.splits))))
    method(CloudServer, "predict_batch", "edge.device.predict_batch")
    method(NoiseCollection, "sample_splits", "core.sampler.sample_splits")
    method(NoiseCollection, "sample_batch", "core.sampler.sample_splits")
    method(_fastexec.CompiledProgram, "__call__", "edge.kernel", tags=kernel_tag)
    method(_NumpyProgram, "__call__", "edge.kernel", tags=kernel_tag)
    method(Channel, "transmit", "edge.channel.transmit")
    method(Shuffler, "permute", "serve.scheduler.permute")
    method(BatchPermutation, "apply", "serve.scheduler.permute")
    method(BatchPermutation, "restore", "serve.scheduler.permute")
    method(ControlPlane, "_execute", "serve.controlplane.execute",
           tags=lambda a, k, r: a[1].request_ids)
    method(ControlPlane, "pump_handles", "serve.controlplane.pump")
    function = tracer.patch_function
    function(protocol, "encode_activation_batch", "edge.protocol.encode",
             tags=lambda a, k, r: (a[0].request_ids, len(r)))
    function(protocol, "encode_prediction_batch", "edge.protocol.encode")
    function(protocol, "decode_activation_batch", "edge.protocol.decode")
    function(protocol, "decode_prediction_batch", "edge.protocol.decode")
    function(quantization, "quantize", "edge.quantization.quantize")


def _install_learning(tracer: Tracer) -> None:
    from repro.core.loss import ShredderLoss
    from repro.core.pipeline import ShredderPipeline
    from repro.core.split import SplitInferenceModel
    from repro.core.trainer import NoiseTrainer
    from repro.nn import Sequential
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.privacy import _fastknn, mutual_information
    from repro.privacy.reduction import PCAReducer

    method = tracer.patch_method
    method(NoiseTrainer, "train_many", "core.trainer")
    method(Sequential, "__call__", "nn.sequential")
    method(ShredderLoss, "many_arrays", "core.loss.many_arrays",
           tags=lambda a, k, r: len(a[1].data))
    method(Tensor, "backward", "nn.tensor.backward")
    method(Adam, "step", "nn.optim.step")
    method(SplitInferenceModel, "accuracy_from_activations_multi", "core.split.accuracy_multi")
    method(ShredderPipeline, "clean_accuracy", "core.pipeline.accuracy")
    method(ShredderPipeline, "noisy_accuracy", "core.pipeline.accuracy")
    method(PCAReducer, "fit_transform", "privacy.pca")
    function = tracer.patch_function
    function(mutual_information, "ksg_mutual_information", "privacy.ksg")
    function(_fastknn, "ksg_counts", "privacy.knn_counts")
    function(mutual_information, "_ksg_counts_scipy", "privacy.knn_counts")


# ----------------------------------------------------------------------
# Spans -> metrics
# ----------------------------------------------------------------------
def _ms(ns: float) -> float:
    return ns / 1e6


def _us(ns: float) -> float:
    return ns / 1e3


def _spans(buffers, name: str):
    for buf in buffers:
        for record in buf.spans():
            if record[NAME] == name:
                yield record


def setup_stages(buffers, log) -> None:
    """Wall time of each set-up call the benchmark made."""
    totals = stage_totals(buffers)
    for name in SETUP_STAGES:
        if name in totals:
            log.add(f"{name}_ms", _ms(totals[name].total_ns))


def serving_stages(buffers, wall_ns: int, log, *, window_metrics: bool) -> None:
    """Queue, edge-executor and wire metrics of one serving phase.

    ``window_metrics`` adds the batched session's own stages (its queue's
    micro-batcher and ``step``), which the engine does not run.
    """
    totals = stage_totals(buffers)
    batches = totals["edge.device.forward_batch"].calls
    rows = sum(r[TAGS][1] for r in _spans(buffers, "edge.device.forward_batch"))

    def per_batch(name: str) -> float:
        return _us(totals[name].total_ns / batches)

    def per_call(name: str, field: str = "total_ns") -> float:
        entry = totals[name]
        return _us(getattr(entry, field) / entry.calls)

    log.add("serve.queue.submit_us", per_call("serve.queue.submit"))
    log.add("serve.metrics.record_us", per_batch("serve.metrics.record"))
    if window_metrics:
        log.add("serve.queue.next_batch_us", per_call("serve.queue.next_batch"))
        log.add("serve.session.step_self_us", per_call("serve.session.step", "self_ns"))
    log.add("edge.device.forward_batch_us", per_call("edge.device.forward_batch", "self_ns"))
    log.add("edge.device.predict_batch_us", per_call("edge.device.predict_batch"))
    log.add("core.sampler.sample_splits_us", per_batch("core.sampler.sample_splits"))
    # Kernels run on the load thread and, on the engine, on its worker
    # too: the share is of the phase's wall time on each thread that ran
    # any, so it stays at most 1 and means the same on both workloads.
    kernel_threads = sum(1 for buf in buffers if "edge.kernel" in buf.names)
    log.add("edge.kernel_share", totals["edge.kernel"].total_ns / (wall_ns * kernel_threads))
    log.add("edge.ir.macs_per_row", sum(r[TAGS] for r in _spans(buffers, "edge.kernel")) / rows)
    log.add("edge.protocol.encode_us", per_batch("edge.protocol.encode"))
    log.add("edge.protocol.decode_us", per_batch("edge.protocol.decode"))
    log.add("edge.channel.transmit_us", per_batch("edge.channel.transmit"))
    uplink = sum(
        r[TAGS][1] for r in _spans(buffers, "edge.protocol.encode") if r[TAGS] is not None
    )
    log.add("edge.protocol.uplink_bytes_per_row", uplink / rows)


def plane_stages(buffers, wall_ns: int, result: traffic.OpenLoopResult, log) -> None:
    """Scheduler, queue-wait and worker hand-off metrics of the
    sub-capacity open-loop phase."""
    totals = stage_totals(buffers)
    batches = list(_spans(buffers, "edge.device.forward_batch"))
    submitted = {r[TAGS]: r[END] for r in _spans(buffers, "serve.queue.submit")}
    waits = [
        r[START] - submitted[rid] for r in batches for rid in r[TAGS][0]
    ]
    q = traffic.supported_quantile(len(waits), 0.99)
    encoded = {
        tuple(r[TAGS][0]): r[END]
        for r in _spans(buffers, "edge.protocol.encode")
        if r[TAGS] is not None
    }
    executes = list(_spans(buffers, "serve.controlplane.execute"))
    handoffs = [r[START] - encoded[tuple(r[TAGS])] for r in executes]
    delivered_ns = {
        rid: result.delivered[index] * 1e9 for index, rid in enumerate(result.request_ids)
    }
    returns = [delivered_ns[rid] - r[END] for r in executes for rid in r[TAGS]]

    def per_batch(name: str) -> float:
        return _us(totals[name].total_ns / len(batches))

    next_batch = totals["serve.scheduler.next_batch"]
    log.add("serve.scheduler.next_batch_us", _us(next_batch.total_ns / next_batch.calls))
    log.add("serve.scheduler.rows_per_batch", sum(r[TAGS][1] for r in batches) / len(batches))
    log.add("serve.queue.wait_p50_ms", _ms(traffic.quantile(waits, 0.5)))
    log.add("serve.queue.wait_p99_ms", _ms(traffic.quantile(waits, q)))
    log.add("serve.controlplane.handoff_ms", _ms(statistics.median(handoffs)))
    log.add("serve.controlplane.return_ms", _ms(statistics.median(returns)))
    log.add(
        "serve.controlplane.worker_busy_share",
        sum(r[END] - r[START] for r in executes) / wall_ns,
    )
    log.add("serve.scheduler.permute_us", per_batch("serve.scheduler.permute"))
    log.add("edge.quantization.quantize_us", per_batch("edge.quantization.quantize"))


def training_stages(buffers, log) -> None:
    """Training-loop metrics of one ``collect`` call (ms per call)."""
    totals = stage_totals(buffers)
    main = next(buf for buf in buffers if "core.trainer" in buf.names)
    _, remote_ns = total_under(main, "nn.sequential", "core.trainer")
    rows = [r[TAGS] for r in _spans(buffers, "core.loss.many_arrays")]
    log.add("core.split.remote_forward_ms", _ms(remote_ns))
    log.add("core.loss.many_arrays_ms", _ms(totals["core.loss.many_arrays"].total_ns))
    log.add("nn.tensor.backward_ms", _ms(totals["nn.tensor.backward"].total_ns))
    log.add("nn.optim.step_ms", _ms(totals["nn.optim.step"].total_ns))
    log.add("core.split.accuracy_multi_ms", _ms(totals["core.split.accuracy_multi"].total_ns))
    log.add("core.trainer.self_ms", _ms(totals["core.trainer"].self_ns))
    log.add("core.trainer.rows_per_step", float(np.mean(rows)))


def estimator_stages(buffers, log) -> None:
    """Estimator metrics of one ``report`` call (ms per call)."""
    totals = stage_totals(buffers)
    for metric, name in (
        ("core.pipeline.accuracy_ms", "core.pipeline.accuracy"),
        ("privacy.pca_ms", "privacy.pca"),
        ("privacy.ksg_ms", "privacy.ksg"),
        ("privacy.knn_counts_ms", "privacy.knn_counts"),
    ):
        log.add(metric, _ms(totals[name].total_ns))
