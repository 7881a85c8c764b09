"""Self-tests of the benchmark.

    python3 -m pytest perfbench        (or: python3 -m unittest discover -s perfbench)
"""

from __future__ import annotations

import json
import re
import sys
import unittest
from itertools import islice

import run
from tracing import Tracer, layer_metrics
from workloads import ROOT, SRC, WORKLOADS, Cli, CliRequest, CliResult, Oracle, Outcome, Workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


class Instant(Workload):
    """A workload whose requests return at once, for driving the loops."""

    name, unit = "instant", "items"

    def requests(self, seed, stream="run"):
        return iter(range(10**9))

    def setup(self, seed):
        pass

    def execute(self, req, tracer=None):
        if req % 20 == 3:  # rarer than one batch in ten, so the slow tail is not all failures
            raise ValueError("boom")
        return req

    def check(self, req, out):
        if isinstance(out, Exception):
            return Outcome("point", reason=type(out).__name__)
        return Outcome("point", 1, 1)


class FakeCli:
    def interpreter_ms(self):
        return 1.0


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in WORKLOADS.values():
            w = cls()
            first = list(islice(w.requests(7), 60))
            self.assertEqual(first, list(islice(w.requests(7), 60)), cls.name)
            self.assertNotEqual(first, list(islice(w.requests(8), 60)), cls.name)
        self.assertEqual(Oracle().pool(7), Oracle().pool(7))
        self.assertNotEqual(Oracle().pool(7), Oracle().pool(8))

    def test_warm_up_stream_differs_from_measured_stream(self):
        for cls in WORKLOADS.values():
            w = cls()
            measured = list(islice(w.requests(7), 20))
            warm = list(islice(w.requests(7, "warmup"), 20))
            self.assertNotEqual(measured, warm, cls.name)

    def test_probe_is_the_same_for_every_seed(self):
        for cls in WORKLOADS.values():
            probe = cls().probe()
            self.assertEqual(probe, cls().probe(), cls.name)
            self.assertEqual(bool(probe), cls.name == "resonances", cls.name)


class PercentileTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        for n in range(100, 400):
            values = list(range(n))
            for p in (50, 90):
                v = run.percentile(values, p)
                self.assertGreaterEqual(sum(1 for x in values if x > v), 10, (n, p))

    def test_refuses_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.percentile(range(99), 90)
        self.assertEqual(run.percentile(range(1, 101), 50), 50)


class MetricNameTest(unittest.TestCase):
    def test_benchmark_file_names(self):
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))

    def test_timed_run_emits_every_end_to_end_metric(self):
        result = run.timed_run(Instant(), seed=1, seconds=1e-3, started=run.perf_counter())
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in BENCH["end_to_end"]})
        for m in BENCH["end_to_end"]:
            self.assertEqual(metrics[m["name"]][1], m["unit"])
            self.assertGreater(metrics[m["name"]][0], 0.0)
        self.assertEqual(result["failures"], {"ValueError": result["failed"]})
        self.assertGreaterEqual(result["info"]["latency_samples"], run.MIN_SAMPLES)

    def test_traced_run_emits_every_per_layer_metric(self):
        children = [(CliRequest((sub,)), CliResult(0, "", timings={"import_ms": 1.0, "command_ms": 2.0}))
                    for sub in Cli.SUBCOMMANDS]
        metrics = {**layer_metrics(Tracer(), {}), **run.cli_metrics(FakeCli(), children),
                   "trace.overhead_ratio": (1.0, "ratio")}
        self.assertEqual(set(metrics), {m["name"] for m in BENCH["per_layer"]})
        for m in BENCH["per_layer"]:
            self.assertEqual(metrics[m["name"]][1], m["unit"], m["name"])
        for name in metrics:
            self.assertTrue(NAME.fullmatch(name), name)


class TracerTest(unittest.TestCase):
    def setUp(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import tunnelkit

        self.tk = tunnelkit

    def test_wraps_every_binding_and_restores_them(self):
        tk = self.tk
        original = tk.amplitude
        s = tk.neutron_filter_system()
        E = 0.5 * s.U0
        untraced = (tk.amplitude(s, E), tk.phase_time(s, E))
        tracer = Tracer()
        tracer.request_id = 0
        tracer.install()
        try:
            self.assertIsNot(tk.amplitude, original)
            traced = (tk.amplitude(s, E), tk.phase_time(s, E))
        finally:
            tracer.uninstall()
        self.assertIs(tk.amplitude, original)
        self.assertEqual(repr(untraced), repr(traced))
        summary = tracer.summary()
        # scaled_denominator is reached through transmission's and phase_time's bindings
        self.assertEqual(summary["transmission.scaled_denominator"]["calls"], 2)
        self.assertEqual(summary["kinematics.kinematics"]["calls"], 2)
        self.assertEqual(summary["transmission.amplitude"]["calls"], 1)
        self.assertTrue(all(v["self_ms"] >= 0.0 for v in summary.values()))
        metrics = layer_metrics(tracer, {"point": {0: 1}})
        self.assertEqual(metrics["transmission.scaled_denominator.calls_per_point"][0], 2.0)

    def test_records_failures_by_type(self):
        tk = self.tk
        tracer = Tracer()
        tracer.install()
        try:
            with self.assertRaises(tk.DomainError):
                tk.find_resonances(tk.neutron_filter_system(), 1.0, 0.5)
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.summary()["resonance.find_resonances"]["failures"], {"DomainError": 1})
        self.assertEqual(layer_metrics(tracer, {})["resonance.find_resonances.failures.other"][0], 1)


if __name__ == "__main__":
    unittest.main()
