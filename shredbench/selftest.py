"""Self-tests of the benchmark's own arithmetic and declarations.

    python3 shredbench/selftest.py          # everything, ~1-2 minutes
    python3 shredbench/selftest.py --quick  # skip running the workloads

Covers the supported-percentile rule, due-time latency and generator-lag
accounting on a fake clock, the session sampler, the lag-based choice of
phases for the open loop's p99, the source key of the cached artifacts,
self-time arithmetic on hand-made spans, the tracer's patching, and that
every workload prints every metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.pin_environment()

import numpy as np  # noqa: E402

import traffic  # noqa: E402
from trace import ThreadBuffer, Tracer, check_closure, self_times, stage_totals  # noqa: E402

QUICK = "--quick" in sys.argv


class SupportedPercentileTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertEqual(traffic.supported_quantile(2000, 0.99), 0.99)
        self.assertEqual(traffic.supported_quantile(1000, 0.99), 0.99)
        self.assertAlmostEqual(traffic.supported_quantile(500, 0.99), 0.98)
        self.assertAlmostEqual(traffic.supported_quantile(11, 0.99), 1 / 11)
        with self.assertRaises(ValueError):
            traffic.supported_quantile(10, 0.99)

    def test_ten_samples_beyond_the_reported_quantile(self):
        for n in (11, 57, 500, 999, 1000, 4096):
            values = np.arange(1, n + 1, dtype=float)
            q = traffic.supported_quantile(n, 0.99)
            reported = traffic.quantile(values, q)
            self.assertGreaterEqual(int(np.sum(values > reported)), 10, n)

    def test_nearest_rank(self):
        values = np.arange(1, 101, dtype=float)[::-1]
        self.assertEqual(traffic.quantile(values, 0.5), 50.0)
        self.assertEqual(traffic.quantile(values, 0.99), 99.0)
        self.assertEqual(traffic.quantile(values, 0.0), 1.0)

    def test_chunk_rates(self):
        done = np.array([1.0, 2.0, 3.0, 5.0])
        rates = traffic.chunk_rates(0.0, done, 2)
        np.testing.assert_allclose(rates, [1.0, 2 / 3])


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class FakeEngine:
    """Serves each request ``service`` seconds after its submit; submit
    ``stall_at`` stalls the caller's clock by ``stall`` seconds."""

    def __init__(self, clock: FakeClock, service: float, stall_at: int, stall: float) -> None:
        self.clock = clock
        self.service = service
        self.stall_at = stall_at
        self.stall = stall
        self.ready: dict[int, float] = {}
        self.results: dict[int, np.ndarray] = {}
        self.next_id = 0

    def submit(self, images, *, slo_seconds=None, session_id=None) -> int:
        rid = self.next_id
        self.next_id += 1
        if rid == self.stall_at:
            self.clock.now += self.stall
        self.ready[rid] = self.clock.now + self.service
        return rid

    def pump(self) -> list[int]:
        done = sorted(rid for rid, at in self.ready.items() if at <= self.clock.now)
        for rid in done:
            del self.ready[rid]
            self.results[rid] = np.full(1, rid)
        return done

    def result(self, rid: int):
        return self.results.pop(rid)

    def next_action_time(self):
        return min(self.ready.values()) if self.ready else None

    @property
    def in_flight(self) -> int:
        return len(self.ready)


class OpenLoopTest(unittest.TestCase):
    def run_loop(self, stall: float):
        clock = FakeClock()
        engine = FakeEngine(clock, service=0.002, stall_at=2, stall=stall)
        offsets = np.array([0.0, 0.001, 0.002, 0.003, 0.004, 0.020])
        result = traffic.drive_open_loop(
            engine, [None] * 6, offsets, [0] * 6, 0.02, clock, clock.sleep,
            poll_seconds=1e-4,
        )
        return result

    def test_on_time_generator(self):
        result = self.run_loop(stall=0.0)
        np.testing.assert_allclose(result.lag, 0.0, atol=1e-12)
        np.testing.assert_allclose(result.latency, 0.002, atol=1.01e-4)
        self.assertTrue(np.all(result.deliveries == 1))
        self.assertEqual([int(o[0]) for o in result.outputs], list(range(6)))

    def test_stall_charges_later_requests_from_their_due_time(self):
        result = self.run_loop(stall=0.010)
        # Request 2 stalls the generator for 10 ms inside its submit: it
        # was submitted on time but completes 10 ms late; requests 3 and
        # 4 fell due during the stall and were sent late.
        np.testing.assert_allclose(result.lag[:3], 0.0, atol=1e-12)
        np.testing.assert_allclose(result.lag[3:5], [0.012 - 0.003, 0.012 - 0.004], atol=1e-9)
        self.assertAlmostEqual(result.lag[5], 0.0, places=9)
        self.assertGreaterEqual(result.latency[2], 0.012 - 1e-9)
        for index in (3, 4):
            # Latency from the due time includes the generator's lateness.
            self.assertGreaterEqual(result.latency[index], result.lag[index] + 0.002 - 1e-9)
        self.assertTrue(np.all(result.deliveries == 1))


class SessionTest(unittest.TestCase):
    def test_fold_back_keeps_ids_in_the_population(self):
        ids = traffic.zipf_sessions(5, "sessions", 50_000, 1_000, 1.1)
        self.assertTrue(np.all((ids >= 0) & (ids < 1_000)))
        np.testing.assert_array_equal(ids, traffic.zipf_sessions(5, "sessions", 50_000, 1_000, 1.1))
        # Rank 0 takes 1 / zeta(1.1) ~ 9.5 % of an unbounded Zipf(1.1).
        self.assertAlmostEqual(float(np.mean(ids == 0)), 0.0945, delta=0.005)


class SteadyPhaseTest(unittest.TestCase):
    def phases(self, p99, lag):
        import workloads

        run = workloads.ServeOpen.__new__(workloads.ServeOpen)
        run.plain = harness.RoundLog({"latency_p99_ms": p99, "lag_p99_ms": lag})
        return run.steady_phases()

    def test_phases_are_chosen_by_lag_not_by_tail(self):
        kept, limit = self.phases([7.0, 30.0, 12.0, 7.5], [0.8, 1.0, 5.0, 0.9])
        self.assertEqual(limit, 2.0)
        # The 30 ms tail stays: its generator kept to the schedule.
        self.assertEqual(kept, [7.0, 30.0, 7.5])

    def test_limit_follows_a_slower_dispatch(self):
        kept, limit = self.phases([9.0, 9.5, 20.0], [1.6, 3.0, 7.0])
        self.assertEqual(limit, 3.2)
        self.assertEqual(kept, [9.0, 9.5])


class ArtifactKeyTest(unittest.TestCase):
    def test_digest_follows_every_source_file(self):
        import tempfile

        with tempfile.TemporaryDirectory(dir=harness.CACHE / "tmp") as tmp:
            package = Path(tmp)
            (package / "sub").mkdir()
            (package / "a.py").write_text("x = 1\n")
            (package / "sub" / "b.py").write_text("y = 2\n")
            before = harness.library_digest(package)
            self.assertEqual(before, harness.library_digest(package))
            (package / "sub" / "b.py").write_text("y = 3\n")
            self.assertNotEqual(before, harness.library_digest(package))
        self.assertTrue(harness.ARTIFACTS.name.startswith("warm-"))


def make_buffer(rows) -> ThreadBuffer:
    buf = ThreadBuffer("test")
    for name, start, end, parent in rows:
        buf.names.append(name)
        buf.starts.append(start)
        buf.ends.append(end)
        buf.parents.append(parent)
        buf.tags.append(None)
    return buf


class SelfTimeTest(unittest.TestCase):
    def test_hand_made_tree(self):
        buf = make_buffer([
            ("root", 0, 100, -1),
            ("a", 10, 40, 0),
            ("leaf", 20, 30, 1),
            ("b", 50, 90, 0),
            ("leaf", 60, 65, 3),
            ("other_root", 200, 210, -1),
        ])
        self.assertEqual(self_times(buf), [30, 20, 10, 35, 5, 10])
        self.assertEqual(check_closure(buf, "root"), (100, 30, 0))
        totals = stage_totals([buf])
        self.assertEqual(totals["leaf"].calls, 2)
        self.assertEqual(totals["leaf"].total_ns, 15)
        self.assertEqual(totals["b"].self_ns, 35)

    def test_misnested_child_is_counted(self):
        buf = make_buffer([("root", 0, 100, -1), ("a", 90, 130, 0), ("b", 95, 99, 1)])
        self.assertEqual(check_closure(buf, "root"), (100, 60, 1))


class Widget:
    def work(self, x):
        return x + 1


class Gadget(Widget):
    pass


class TracerTest(unittest.TestCase):
    def test_patch_method_records_and_restores(self):
        ticks = iter(range(0, 1000, 10))
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.patch_method(Gadget, "work", "gadget.work", tags=lambda a, k, r: r)
        self.assertEqual(Gadget().work(1), 2)
        self.assertEqual(Widget().work(1), 2)
        tracer.unpatch()
        self.assertNotIn("work", Gadget.__dict__)
        (buf,) = tracer.reset()
        self.assertEqual(list(buf.spans()), [("gadget.work", 0, 10, -1, 2)])

    def test_patch_function_follows_imported_names(self):
        home = types.ModuleType("repro_selftest_home")
        alias = types.ModuleType("repro_selftest_alias")

        def double(x):
            return 2 * x

        home.double = double
        alias.renamed = double
        sys.modules[home.__name__] = home
        sys.modules[alias.__name__] = alias
        try:
            tracer = Tracer()
            tracer.patch_function(home, "double", "double")
            self.assertEqual(alias.renamed(3), 6)
            self.assertEqual(home.double(4), 8)
            tracer.unpatch()
            self.assertIs(alias.renamed, double)
            self.assertIs(home.double, double)
            (buf,) = tracer.reset()
            self.assertEqual(buf.names, ["double", "double"])
        finally:
            del sys.modules[home.__name__], sys.modules[alias.__name__]


def declared():
    import workloads

    return workloads


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_matches_declared_metrics(self):
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        module = declared()
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(sorted(names), sorted(module.WORKLOADS))
        for kind, wanted in (("end_to_end", module.END_TO_END), ("per_layer", module.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[kind]}
            self.assertEqual(listed, wanted, kind)
        self.assertIn("setup_s", module.END_TO_END)
        reached: dict[str, str] = {}
        for cls in module.WORKLOADS.values():
            for metric, unit in cls.LAYERS.items():
                self.assertEqual(module.PER_LAYER.get(metric), unit, metric)
                reached[metric] = unit
        self.assertEqual(reached, module.PER_LAYER, "a layer metric no workload reaches")

    @unittest.skipIf(QUICK, "--quick")
    def test_each_workload_prints_every_metric(self):
        module = declared()
        for name in module.WORKLOADS:
            for trace, wanted in ((0, module.END_TO_END), (1, module.PER_LAYER)):
                with self.subTest(workload=name, trace=trace):
                    run = subprocess.run(
                        [sys.executable, str(HERE / "run.py"), "--workload", name,
                         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                        capture_output=True, text=True, timeout=600,
                    )
                    self.assertEqual(run.returncode, 0, run.stderr[-2000:])
                    result = json.loads(run.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()}, wanted
                    )
                    if not trace:
                        for metric, entry in result["metrics"].items():
                            self.assertGreater(entry["value"], 0, metric)


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0], "-v"])
