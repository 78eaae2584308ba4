"""The three workloads: ``serve_batched``, ``serve_open``, ``offline_learn``.

All three use lenet at ``small`` scale at its default cut, in one process.
Backbone weights and the serving noise collection are fixed (built once
per checkout by :func:`warm`); the ``--seed`` picks the request inputs,
the arrival times and sessions, and the pipeline seed (noise draws,
noise initialisation and training batches).

Every round does a fixed amount of work on freshly built objects; the
round loop in :mod:`harness` only decides how many rounds fit in the run.
Correctness checks run after the timed regions.  Every workload prints
every metric ``BENCHMARK.json`` names, each measured on the workload's own
operation (a request when serving, a learning job offline).  See
``README.md`` for why each workload exists and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import fcntl
import functools
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from repro.config import DEFAULT_SEED, Config, get_scale
from repro.core import activation_cache
from repro.core.sampler import NoiseCollection
from repro.edge import ir
from repro.eval.experiments import build_pipeline, get_benchmark
from repro.models import get_pretrained

import harness
import layers
import traffic
from trace import Tracer, check_closure

NETWORK = "lenet"
SCALE = "small"
WINDOW = 32
SLO_SECONDS = 0.020
#: Serving collection (and the one ``offline_learn`` trains each round):
#: the lenet Table-1 collection size at the scale's iteration count.
MEMBERS = 8
ITERATIONS = 400
#: Floor for noisy accuracy after a collect (clean accuracy is 0.9775;
#: ten seeds between 1 and 35 gave 0.93 to 0.96).
NOISY_ACCURACY_FLOOR = 0.90
#: Largest share of a traced phase's wall time that its stage spans may
#: leave unclaimed (the benchmark's own loop plus unwrapped code).
UNATTRIBUTED_MAX = 0.20

#: Printed by every workload with ``--trace 0``.  The operation behind
#: throughput and latency is a request on the serving workloads and a
#: learning job (``collect`` then ``report``) on ``offline_learn``.
END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MiB",
}
#: Printed by every workload with ``--trace 1``; 0 for a layer the
#: workload never calls.
PER_LAYER = layers.ALL

COLLECTION = harness.ARTIFACTS / f"collection-{NETWORK}-{SCALE}-m{MEMBERS}-i{ITERATIONS}.npz"
WARM_STAMP = harness.ARTIFACTS / "warm.json"


def model_config() -> Config:
    """Backbone weights are the same for every seed (cached once)."""
    return Config(seed=DEFAULT_SEED, scale=get_scale(SCALE))


def pipeline_config(seed: int) -> Config:
    return Config(seed=int(seed), scale=get_scale(SCALE))


def stage(tracer: Tracer | None, name: str):
    """A span around one of the benchmark's own calls into a layer."""
    return tracer.span(name) if tracer is not None else nullcontext()


def fresh_pipeline(seed: int, tracer: Tracer | None):
    """Load the backbone and build a pipeline from scratch.

    The activation cache is emptied first: it holds its entries' models,
    so keeping them would grow memory with the round count.
    """
    activation_cache.clear_activation_cache()
    with stage(tracer, "models.get_pretrained"):
        bundle = get_pretrained(NETWORK, model_config())
    with stage(tracer, "eval.build_pipeline"):
        pipeline = build_pipeline(bundle, get_benchmark(NETWORK), pipeline_config(seed))
    return bundle, pipeline


def digest(outputs) -> str:
    hasher = hashlib.sha256()
    for logits in outputs:
        hasher.update(np.ascontiguousarray(logits).tobytes())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Cache warm-up (its own process, so it never counts in peak_rss_mb)
# ----------------------------------------------------------------------
def warm() -> None:
    """Pre-train the backbone, train and save the serving collection, and
    compile both native kernel libraries, once per checkout and state of
    the library source."""
    harness.ARTIFACTS.mkdir(parents=True, exist_ok=True)
    with open(harness.ARTIFACTS / "warm.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if WARM_STAMP.exists():
            return
        start = time.perf_counter()
        bundle = get_pretrained(NETWORK, model_config())
        pipeline = build_pipeline(bundle, get_benchmark(NETWORK), model_config())
        collection = pipeline.collect(MEMBERS, ITERATIONS)
        partial = COLLECTION.with_name(COLLECTION.stem + ".partial.npz")
        collection.save(partial)
        partial.replace(COLLECTION)
        pipeline.deploy(collection, batch_window=WINDOW).infer_stream(
            bundle.test_set.images[:WINDOW, None]
        )
        engine = pipeline.deploy(collection, **ServeOpen.DEPLOY)
        try:
            engine.infer_stream(bundle.test_set.images[:WINDOW, None])
        finally:
            engine.close()
        pipeline.report(collection)
        WARM_STAMP.write_text(json.dumps({"seconds": time.perf_counter() - start}))


def ensure_warm() -> None:
    if not WARM_STAMP.exists():
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--warm"],
            check=True,
            timeout=850,
        )


# ----------------------------------------------------------------------
# Base
# ----------------------------------------------------------------------
class Workload:
    """Shared bookkeeping: rounds, checks, and the result."""

    name = ""
    #: The layer metrics this workload's calls reach (the rest print 0).
    LAYERS: dict[str, str] = {}
    MIN_ROUNDS = 3

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        #: Values every measured round records, and whether it was traced.
        self.log = harness.RoundLog()
        self.traced_rounds: list[bool] = []
        #: Values only untraced rounds record (the end-to-end metrics).
        self.plain = harness.RoundLog()
        #: Values only traced rounds record (the per-layer metrics).
        self.layer_log = harness.RoundLog()
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.spans_out = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def one_round(self, index: int, traced: bool) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need every round (run after the last one)."""

    def end_to_end(self) -> dict[str, float]:
        raise NotImplementedError

    def traced_phase(self, root: str, body):
        """Run ``body`` under a root span; return its result, the phase's
        span buffers and its wall time (ns).

        Checks that the spans nest and that the stage self-times add up to
        the wall time within :data:`UNATTRIBUTED_MAX`.
        """
        tracer = self.tracer
        tracer.reset()
        with tracer.span(root):
            result = body()
        buffers = tracer.reset()
        main = next(buf for buf in buffers if root in buf.names)
        wall, residual, violations = check_closure(main, root)
        if violations or residual > UNATTRIBUTED_MAX * wall:
            self.fail(
                f"{root}: {violations} mis-nested spans, stage self-times "
                f"cover {1 - residual / wall:.3f} of the wall time"
            )
        self.layer_log.add(f"unattributed.{root}", residual / wall)
        self.spans_out = buffers
        return result, buffers, wall

    def run(self) -> dict:
        probes = harness.run_rounds(
            self.seconds, self._round, trace=self.trace, min_rounds=self.MIN_ROUNDS
        )
        self.finish()
        if self.trace:
            values, declared = self.per_layer(), PER_LAYER
            missing = set(self.LAYERS) - set(values)
            if missing:
                raise RuntimeError(f"{self.name} measured none of {sorted(missing)}")
            values = {name: values.get(name, 0.0) for name in declared}
        else:
            values, declared = self.end_to_end(), END_TO_END
        if set(values) != set(declared):
            raise RuntimeError(
                f"{self.name} printed {sorted(values)}, declared {sorted(declared)}"
            )
        metrics = {name: (values[name], unit) for name, unit in declared.items()}
        details = {
            "environment": harness.environment_stamp(),
            "rounds": len(probes),
            "host_probe_s": {
                "median": statistics.median(probes),
                "min": min(probes),
                "max": max(probes),
                "all": probes,
            },
            "samples": {**self.log.values, **self.plain.values},
            "traced_round": self.traced_rounds,
            "failures": self.failures[:20],
            **self.details(),
        }
        if self.trace and self.spans_out is not None:
            details["spans_file"] = str(self.write_spans())
        return {
            "correct": not self.failures and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "details": details,
        }

    def details(self) -> dict:
        return {}

    def _round(self, index: int, traced: bool) -> None:
        gc.collect()
        if index >= 0:
            self.traced_rounds.append(traced)
        if traced:
            layers.install(self.tracer, self.name)
            try:
                self.one_round(index, True)
            finally:
                self.tracer.unpatch()
        else:
            self.one_round(index, False)

    def write_spans(self) -> Path:
        """The last traced phase's spans, one JSON line per thread."""
        harness.OUT.mkdir(parents=True, exist_ok=True)
        path = harness.OUT / f"spans-{self.name}-seed{self.seed}.jsonl"
        with open(path, "w") as handle:
            for buf in self.spans_out:
                record = {"thread": buf.thread_name, "spans": list(buf.spans())}
                handle.write(json.dumps(record, default=str) + "\n")
        return path

    def overhead(self, name: str) -> float:
        """Traced against untraced median of a per-round wall time."""
        values = self.log.values[name]
        traced = [v for v, t in zip(values, self.traced_rounds) if t]
        plain = [v for v, t in zip(values, self.traced_rounds) if not t]
        return statistics.median(traced) / statistics.median(plain) - 1.0

    def per_layer(self) -> dict[str, float]:
        """Median over traced rounds of every layer metric the workload
        reaches."""
        return {
            name: self.layer_log.median(name)
            for name in self.LAYERS
            if name in self.layer_log.values
        }


def latency_summary(latency_s: np.ndarray, log: harness.RoundLog) -> None:
    """Record one segment's median and its highest supported percentile up
    to the 99th (ms), with the quantile used and the sample count."""
    n = len(latency_s)
    q = traffic.supported_quantile(n, 0.99)
    log.add("latency_p50_ms", 1e3 * traffic.quantile(latency_s, 0.5))
    log.add("latency_p99_ms", 1e3 * traffic.quantile(latency_s, q))
    log.add("latency_p99_quantile", q)
    log.add("latency_samples", n)


# ----------------------------------------------------------------------
# serve_batched
# ----------------------------------------------------------------------
class ServeBatched(Workload):
    """32 closed-loop clients against the in-process batched session."""

    name = "serve_batched"
    LAYERS = {
        **layers.SETUP_SERVING,
        **layers.PER_REQUEST,
        **layers.EDGE,
        **layers.WIRE,
        **layers.VALIDITY,
    }
    #: Requests measured per round after the set-up window (1536 windows).
    REQUESTS = 49_152
    #: Completions per throughput and latency sample (128 windows).
    CHUNK = 4_096
    #: Leading requests checked bit-for-bit against the sequential path.
    CHECKED = 256

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        super().__init__(seed, seconds, trace)
        self.total = WINDOW + self.REQUESTS
        self.inputs = None
        self.expected = None
        self.digests: set[str] = set()

    def one_round(self, index: int, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if traced:
            (session, setup_s, misses), buffers, _ = self.traced_phase(
                "setup", lambda: self.setup(tracer)
            )
            layers.setup_stages(buffers, self.layer_log)
            self.layer_log.add("edge.ir.lower_misses", misses)
            (outputs, latency, done, wall), buffers, phase_wall = self.traced_phase(
                "serve", lambda: self.serve(session)
            )
            layers.serving_stages(buffers, phase_wall, self.layer_log, window_metrics=True)
        else:
            session, setup_s, misses = self.setup(None)
            outputs, latency, done, wall = self.serve(session)
        self.check_round(session, outputs)
        if index < 0:
            return
        self.log.add("setup_s", setup_s)
        self.log.add("serve_wall_s", wall)
        if not traced:
            for rate in traffic.chunk_rates(done[0], done[1:], self.CHUNK):
                self.plain.add("throughput", rate)
            for start in range(0, len(latency), self.CHUNK):
                latency_summary(latency[start : start + self.CHUNK], self.plain)

    def setup(self, tracer):
        start = time.perf_counter()
        misses = ir.lower_cache_info()["misses"]
        bundle, pipeline = fresh_pipeline(self.seed, tracer)
        with stage(tracer, "core.sampler.collection_load"):
            collection = NoiseCollection.load(COLLECTION)
        with stage(tracer, "core.pipeline.deploy"):
            session = pipeline.deploy(collection, batch_window=WINDOW)
        if self.inputs is None:
            images = bundle.test_set.images
            picks = traffic.input_indices(self.seed, self.total, len(images))
            self.inputs = np.ascontiguousarray(images[picks])
            self.pipeline, self.collection = pipeline, collection
        first = [session.submit(self.inputs[k]) for k in range(WINDOW)]
        self.first_window = [session.result(rid) for rid in session.step()]
        setup_s = time.perf_counter() - start
        if first != list(range(WINDOW)):
            self.fail("set-up window ids are not 0..31")
        return session, setup_s, ir.lower_cache_info()["misses"] - misses

    def serve(self, session):
        """The closed loop: every delivered request's client submits its
        next one, so each step serves one full window."""
        clock = time.perf_counter
        inputs = self.inputs
        total = self.total
        submitted = np.empty(total)
        latency = np.empty(self.REQUESTS)
        done_at = np.empty(self.REQUESTS + 1)
        outputs: list = [None] * total
        next_k = WINDOW
        start = done_at[0] = clock()
        for _ in range(WINDOW):
            submitted[next_k] = clock()
            session.submit(inputs[next_k])
            next_k += 1
        served = 0
        while served < self.REQUESTS:
            done = session.step()
            if not done:
                break
            now = clock()
            for rid in done:
                outputs[rid] = session.result(rid)
                latency[served] = now - submitted[rid]
                served += 1
                done_at[served] = now
                if next_k < total:
                    submitted[next_k] = clock()
                    session.submit(inputs[next_k])
                    next_k += 1
        wall = clock() - start
        outputs[:WINDOW] = self.first_window
        return outputs, latency[:served], done_at[: served + 1], wall

    def check_round(self, session, outputs) -> None:
        self.attempted += self.total
        missing = sum(1 for logits in outputs if logits is None)
        if missing or session.pending:
            self.failed += missing
            self.fail(f"{missing} requests undelivered, {session.pending} still queued")
            return
        if self.expected is None:
            reference = self.pipeline.deploy(self.collection, batched=False)
            self.expected = [
                reference.infer(self.inputs[k][None]) for k in range(self.CHECKED)
            ]
        mismatched = sum(
            1 for got, want in zip(outputs, self.expected) if not np.array_equal(got, want)
        )
        if mismatched:
            self.failed += mismatched
            self.fail(f"{mismatched} of {self.CHECKED} requests differ from the sequential session")
        self.digests.add(digest(outputs))

    def finish(self) -> None:
        if len(self.digests) > 1:
            self.fail(f"rounds disagree: {len(self.digests)} distinct output digests")

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.log.median("setup_s"),
            "throughput": self.plain.median("throughput"),
            "latency_p50_ms": self.plain.median("latency_p50_ms"),
            "latency_p99_ms": self.plain.median("latency_p99_ms"),
            "peak_rss_mb": harness.peak_rss_mb(),
        }

    def per_layer(self) -> dict[str, float]:
        out = super().per_layer()
        out["tracing_overhead"] = self.overhead("serve_wall_s")
        out["trace.unattributed_share"] = self.layer_log.median("unattributed.serve")
        return out

    def details(self) -> dict:
        return {
            "requests_per_round": self.REQUESTS,
            "throughput_chunk": self.CHUNK,
            "checked_prefix": self.CHECKED,
        }


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------
class ServeOpen(Workload):
    """Open-loop Poisson traffic against the privacy-hardened engine."""

    name = "serve_open"
    LAYERS = {
        **layers.SETUP_SERVING,
        "serve.queue.submit_us": "us",
        "serve.metrics.record_us": "us",
        **layers.EDGE,
        **layers.WIRE,
        **layers.PLANE,
        "loadgen.lag_ms": "ms",
        **layers.VALIDITY,
    }
    DEPLOY = dict(
        batch_window=WINDOW,
        workers=1,
        deadline_aware=True,
        quantize_bits=8,
        weight_bits=8,
        shuffle=True,
    )
    #: Each round runs this many (sub-capacity, overload) phase pairs on
    #: one engine, so one run yields dozens of samples of each.
    CYCLES = 3
    #: Sub-capacity phase: latency is set by the window-close policy.
    #: 1000 requests are the fewest that support a 99th percentile.
    SUB_RATE = 3_000.0
    SUB_REQUESTS = 1_000
    #: Overload phase: several times the plane's capacity on a 2-core
    #: host, so the delivered rate is the capacity.
    OVER_RATE = 100_000.0
    OVER_REQUESTS = 4_096
    #: The population every open-loop trace in the repo uses (``repro
    #: serve``, ``bench_serving.py``, ``examples/sharded_serving.py``).
    SESSIONS = 1_000_000
    ZIPF = 1.1
    #: A sub-capacity phase counts in ``latency_p99_ms`` only while the
    #: generator kept to its schedule: its lag p99 at most the larger of
    #: this floor and twice the run's smallest phase lag p99.
    LAG_LIMIT_MS = 2.0
    LAG_LIMIT_FACTOR = 2.0

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        super().__init__(seed, seconds, trace)
        self.phases = []  # (kind, first request, offsets)
        position = WINDOW
        for cycle in range(self.CYCLES):
            for kind, n, rate in (
                ("sub", self.SUB_REQUESTS, self.SUB_RATE),
                ("over", self.OVER_REQUESTS, self.OVER_RATE),
            ):
                offsets = traffic.poisson_offsets(seed, f"{kind}{cycle}", n, rate)
                self.phases.append((kind, position, offsets))
                position += n
        self.total = position
        self.sessions = [
            int(s) for s in traffic.zipf_sessions(seed, "sessions", self.total, self.SESSIONS, self.ZIPF)
        ]
        self.inputs = None
        self.expected = None

    def one_round(self, index: int, traced: bool) -> None:
        tracer = self.tracer if traced else None
        sleep = tracer.wrap("loadgen.idle", time.sleep) if traced else time.sleep
        if traced:
            (engine, setup_s, misses), buffers, _ = self.traced_phase(
                "setup", lambda: self.setup(tracer)
            )
            layers.setup_stages(buffers, self.layer_log)
            self.layer_log.add("edge.ir.lower_misses", misses)
        else:
            engine, setup_s, misses = self.setup(None)
        results = []
        try:
            for kind, lo, offsets in self.phases:
                run = functools.partial(self.phase, engine, lo, offsets, sleep)
                if not traced:
                    results.append((kind, run()))
                    continue
                result, buffers, wall = self.traced_phase(kind, run)
                if kind == "sub":
                    layers.plane_stages(buffers, wall, result, self.layer_log)
                else:
                    layers.serving_stages(buffers, wall, self.layer_log, window_metrics=False)
                results.append((kind, result))
        finally:
            engine.close()
        self.check_round([result for _, result in results])
        if index < 0:
            return
        self.log.add("setup_s", setup_s)
        self.log.add("over_wall_s", sum(r.span_seconds for kind, r in results if kind == "over"))
        if traced:
            return
        for kind, result in results:
            if kind == "over":
                self.plain.add("throughput", self.OVER_REQUESTS / result.span_seconds)
                continue
            latency = result.latency
            delivered = latency[~np.isnan(latency)]
            latency_summary(delivered, self.plain)
            self.plain.add("slo_met", float(np.sum(delivered <= SLO_SECONDS)))
            self.plain.add("slo_sent", len(latency))
            lag_q = traffic.supported_quantile(len(result.lag), 0.99)
            self.plain.add("lag_p99_ms", 1e3 * traffic.quantile(result.lag, lag_q))

    def setup(self, tracer):
        start = time.perf_counter()
        misses = ir.lower_cache_info()["misses"]
        bundle, pipeline = fresh_pipeline(self.seed, tracer)
        with stage(tracer, "core.sampler.collection_load"):
            collection = NoiseCollection.load(COLLECTION)
        with stage(tracer, "core.pipeline.deploy"):
            engine = pipeline.deploy(collection, **self.DEPLOY)
        if self.inputs is None:
            images = bundle.test_set.images
            picks = traffic.input_indices(self.seed, self.total, len(images))
            self.inputs = np.ascontiguousarray(images[picks])
            self.pipeline, self.collection = pipeline, collection
        ids = [
            engine.submit(self.inputs[k], slo_seconds=SLO_SECONDS, session_id=self.sessions[k])
            for k in range(WINDOW)
        ]
        engine.drain()
        self.first_window = [engine.result(rid) for rid in ids]
        return engine, time.perf_counter() - start, ir.lower_cache_info()["misses"] - misses

    def phase(self, engine, lo: int, offsets: np.ndarray, sleep):
        hi = lo + len(offsets)
        return traffic.drive_open_loop(
            engine,
            self.inputs[lo:hi],
            offsets,
            self.sessions[lo:hi],
            SLO_SECONDS,
            time.perf_counter,
            sleep,
        )

    def check_round(self, phases) -> None:
        """Exactly-once delivery, and bit parity of every request with a
        single-threaded batched session under the same settings."""
        self.attempted += self.total
        outputs = list(self.first_window)
        for result in phases:
            bad = int(np.sum(result.deliveries != 1))
            if bad:
                self.failed += bad
                self.fail(f"{bad} requests not delivered exactly once")
            outputs.extend(result.outputs)
        if self.expected is None:
            reference = self.pipeline.deploy(
                self.collection,
                batch_window=WINDOW,
                quantize_bits=8,
                weight_bits=8,
                shuffle=True,
            )
            self.expected = reference.infer_stream(
                self.inputs[k] for k in range(self.total)
            )
        mismatched = sum(
            1 for got, want in zip(outputs, self.expected)
            if got is None or not np.array_equal(got, want)
        )
        if mismatched:
            self.failed += mismatched
            self.fail(f"{mismatched} of {self.total} requests differ from the single-threaded reference")

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.log.median("setup_s"),
            "throughput": self.plain.median("throughput"),
            "latency_p50_ms": self.plain.median("latency_p50_ms"),
            "latency_p99_ms": statistics.median(self.steady_phases()[0]),
            "peak_rss_mb": harness.peak_rss_mb(),
        }

    def steady_phases(self) -> tuple[list[float], float]:
        """The p99s of the sub-capacity phases in which the generator kept
        to its schedule, and the lag limit (ms) that chose them.

        An open loop charges every stall of the load thread to the tail of
        the phase it hits; on a shared host such stalls come and go in
        stretches, and how many phases they hit varies from run to run.
        They show first as generator lag, so phases are chosen by lag,
        never by their own tail.  The limit scales with the run's least
        disturbed phase, so a program change that slows the dispatch on
        every phase raises the limit with it instead of excluding them.
        Rarer stalls in excluded phases still count in ``slo_attainment``.
        """
        p99 = self.plain.values["latency_p99_ms"]
        lag = self.plain.values["lag_p99_ms"]
        limit = max(self.LAG_LIMIT_MS, self.LAG_LIMIT_FACTOR * min(lag))
        return [value for value, late in zip(p99, lag) if late <= limit], limit

    def per_layer(self) -> dict[str, float]:
        out = super().per_layer()
        out["loadgen.lag_ms"] = self.plain.median("lag_p99_ms")
        out["tracing_overhead"] = self.overhead("over_wall_s")
        out["trace.unattributed_share"] = self.layer_log.median("unattributed.over")
        return out

    def details(self) -> dict:
        kept, limit = self.steady_phases()
        return {
            "slo_attainment": sum(self.plain.values["slo_met"]) / sum(self.plain.values["slo_sent"]),
            "p99_lag_limit_ms": limit,
            "p99_phases_kept": len(kept),
            "p99_phases_excluded": len(self.plain.values["latency_p99_ms"]) - len(kept),
            "sessions": self.SESSIONS,
            "zipf_exponent": self.ZIPF,
            "cycles_per_round": self.CYCLES,
            "sub_rate_rps": self.SUB_RATE,
            "sub_requests": self.SUB_REQUESTS,
            "over_rate_rps": self.OVER_RATE,
            "over_requests": self.OVER_REQUESTS,
            "slo_seconds": SLO_SECONDS,
        }


# ----------------------------------------------------------------------
# offline_learn
# ----------------------------------------------------------------------
class OfflineLearn(Workload):
    """Learning jobs (``collect`` then ``report``), each on a freshly built
    pipeline.

    A round loads the backbone and builds a pipeline (its set-up), then
    runs :attr:`JOBS` jobs; each job after the first gets a pipeline built
    anew from the same backbone with the activation cache emptied, so
    every job does the same work.  Throughput is noise-training
    iterations per second of ``collect``; latency is the wall time of a
    whole job.
    """

    name = "offline_learn"
    LAYERS = {
        "models.get_pretrained_ms": "ms",
        "eval.build_pipeline_ms": "ms",
        **layers.TRAINING,
        **layers.ESTIMATORS,
        **layers.VALIDITY,
    }
    #: Jobs per round.  Set-up (mostly generating the dataset) varies by
    #: up to 2x between rounds, so a run needs many rounds for a steady
    #: ``setup_s``; two jobs per round still give a 30-s run about
    #: thirty-five job latencies, a tail near the 70th percentile with ten
    #: samples beyond it.
    JOBS = 2
    #: Ten untraced rounds give twenty jobs, the fewest whose tail (ten
    #: samples beyond it) is not below their median.
    MIN_ROUNDS = 10

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        super().__init__(seed, seconds, trace)
        self.first_members: bytes | None = None

    def one_round(self, index: int, traced: bool) -> None:
        tracer = self.tracer if traced else None
        start = time.perf_counter()
        if traced:
            (bundle, pipeline), buffers, _ = self.traced_phase(
                "setup", lambda: fresh_pipeline(self.seed, tracer)
            )
            layers.setup_stages(buffers, self.layer_log)
        else:
            bundle, pipeline = fresh_pipeline(self.seed, None)
        setup_s = time.perf_counter() - start
        jobs = []
        for job in range(self.JOBS):
            if job:
                activation_cache.clear_activation_cache()
                pipeline = build_pipeline(bundle, get_benchmark(NETWORK), pipeline_config(self.seed))
            jobs.append(self.job(pipeline, traced))
        if index < 0:
            return
        self.log.add("setup_s", setup_s)
        self.log.add("learn_wall_s", sum(collect_s + report_s for collect_s, report_s in jobs))
        if not traced:
            for collect_s, report_s in jobs:
                self.plain.add("collect_s", collect_s)
                self.plain.add("report_s", report_s)
                self.plain.add("job_s", collect_s + report_s)
                self.plain.add("throughput", MEMBERS * ITERATIONS / collect_s)

    def job(self, pipeline, traced: bool) -> tuple[float, float]:
        """One ``collect`` and one ``report``; checks them and returns
        their wall times."""
        if traced:
            (collection, collect_s), buffers, _ = self.traced_phase(
                "collect", lambda: self.timed(pipeline.collect, MEMBERS, ITERATIONS)
            )
            layers.training_stages(buffers, self.layer_log)
            (report, report_s), buffers, _ = self.traced_phase(
                "report", lambda: self.timed(pipeline.report, collection)
            )
            layers.estimator_stages(buffers, self.layer_log)
        else:
            collection, collect_s = self.timed(pipeline.collect, MEMBERS, ITERATIONS)
            report, report_s = self.timed(pipeline.report, collection)
        self.check_job(collection, report)
        self.log.add("original_mi_bits", report.original_mi_bits)
        self.log.add("shredded_mi_bits", report.shredded_mi_bits)
        self.log.add("noisy_accuracy", report.noisy_accuracy)
        return collect_s, report_s

    @staticmethod
    def timed(fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start

    def check_job(self, collection, report) -> None:
        self.attempted += 1
        members = np.stack([sample.tensor for sample in collection.samples]).tobytes()
        problems = []
        if self.first_members is None:
            self.first_members = members
        elif members != self.first_members:
            problems.append("collection differs from the first job's")
        if not report.shredded_mi_bits < report.original_mi_bits:
            problems.append(
                f"shredded MI {report.shredded_mi_bits:.3f} not below original {report.original_mi_bits:.3f}"
            )
        if report.noisy_accuracy < NOISY_ACCURACY_FLOOR:
            problems.append(f"noisy accuracy {report.noisy_accuracy:.4f} below {NOISY_ACCURACY_FLOOR}")
        if problems:
            self.failed += 1
            for problem in problems:
                self.fail(problem)

    def end_to_end(self) -> dict[str, float]:
        jobs = self.plain.values["job_s"]
        q = traffic.supported_quantile(len(jobs), 0.99)
        return {
            "setup_s": self.log.median("setup_s"),
            "throughput": self.plain.median("throughput"),
            "latency_p50_ms": 1e3 * traffic.quantile(jobs, 0.5),
            "latency_p99_ms": 1e3 * traffic.quantile(jobs, q),
            "peak_rss_mb": harness.peak_rss_mb(),
        }

    def per_layer(self) -> dict[str, float]:
        out = super().per_layer()
        out["tracing_overhead"] = self.overhead("learn_wall_s")
        out["trace.unattributed_share"] = self.layer_log.median("unattributed.collect")
        return out

    def details(self) -> dict:
        jobs = len(self.plain.values.get("job_s", []))
        return {
            "members": MEMBERS,
            "iterations": ITERATIONS,
            "jobs_per_round": self.JOBS,
            "latency_samples": jobs,
            "latency_p99_quantile": traffic.supported_quantile(jobs, 0.99) if jobs > 10 else None,
            "noisy_accuracy_floor": NOISY_ACCURACY_FLOOR,
        }


WORKLOADS = {cls.name: cls for cls in (ServeBatched, ServeOpen, OfflineLearn)}
