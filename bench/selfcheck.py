#!/usr/bin/env python3
"""Self-test of the benchmark harness on synthetic functions.

    python3 bench/selfcheck.py

Covers span wrapping across modules, self time with nested spans and with
spans on two threads, the coverage and parallel-efficiency arithmetic,
the exact-count check, deadline expiry, and that BENCHMARK.json lists the
metrics the harness prints.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
import types
import unittest
from pathlib import Path

import layers
import run
import spans
from spans import Span, Tracer, summarize


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def span(name, start, end, parent=None, tid=1):
    s = Span(name, start, parent, tid)
    s.end = end
    return s


class NestedSpans(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = Tracer(self.clock)

    def test_self_time_subtracts_children(self):
        inner = self.tracer.wrap(lambda: self.clock.advance(2.0), "inner")

        def outer_body():
            self.clock.advance(1.0)
            inner()
            inner()
            self.clock.advance(0.5)

        self.tracer.wrap(outer_body, "outer")()
        totals = summarize(self.tracer.spans, self.clock()).totals
        self.assertEqual(totals["outer"].calls, 1)
        self.assertAlmostEqual(totals["outer"].busy_s, 5.5)
        self.assertAlmostEqual(totals["outer"].self_s, 1.5)
        self.assertEqual(totals["inner"].calls, 2)
        self.assertAlmostEqual(totals["inner"].busy_s, 4.0)
        self.assertAlmostEqual(totals["inner"].self_s, 4.0)

    def test_recursion_counts_busy_time_once(self):
        def body(depth):
            self.clock.advance(1.0)
            if depth:
                recurse(depth - 1)

        recurse = self.tracer.wrap(body, "recurse")
        recurse(2)
        totals = summarize(self.tracer.spans, self.clock()).totals
        self.assertEqual(totals["recurse"].calls, 3)
        self.assertAlmostEqual(totals["recurse"].busy_s, 3.0)
        self.assertAlmostEqual(totals["recurse"].self_s, 3.0)

    def test_measure_hook_adds_counts(self):
        sized = self.tracer.wrap(lambda xs: len(xs), "sized", lambda a, k, r: {"items": r})
        sized([1, 2, 3])
        sized([4])
        totals = summarize(self.tracer.spans, self.clock()).totals
        self.assertEqual(totals["sized"].counts["items"], 4)

    def test_open_span_ends_at_operation_end(self):
        root = span("root", 0.0, None)
        summary = summarize([root], op_end=7.0)
        self.assertAlmostEqual(summary.root_duration_s, 7.0)


class ThreadedSpans(unittest.TestCase):
    def test_two_worker_threads_overlap(self):
        root = span("main", 0.0, 10.0, tid=0)
        task_a = span("task", 1.0, 6.0, root, tid=1)
        task_b = span("task", 2.0, 9.0, root, tid=2)
        child_a = span("step", 1.5, 5.5, task_a, tid=1)
        summary = summarize([root, task_a, task_b, child_a], 10.0, first_task_span="task")
        # the root is covered on [1, 9]; overlapping workers count once
        self.assertAlmostEqual(summary.root_self_s, 2.0)
        self.assertAlmostEqual(summary.totals["task"].self_s, 1.0 + 7.0)
        self.assertAlmostEqual(summary.worker_busy_s, 12.0)
        self.assertEqual(summary.workers, 2)
        self.assertAlmostEqual(summary.queue_wait_s, 3.0)
        self.assertAlmostEqual(layers.coverage(summary, 10.0), 0.8)
        metrics = layers.cycle_metrics([(summary, 10.0, False)])
        self.assertAlmostEqual(metrics["benchmark.parallel_efficiency"], 12.0 / (10.0 * 2))
        self.assertAlmostEqual(metrics["benchmark.queue_wait_s"], 3.0)
        self.assertAlmostEqual(metrics["trace.coverage"], 0.8)

    def test_worker_spans_attach_to_the_operation_root(self):
        tracer = Tracer()
        work = tracer.wrap(lambda: time.sleep(0.01), "work")

        def command():
            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
                self.assertFalse(t.is_alive())

        tracer.wrap(command, "main")()
        summary = summarize(tracer.spans, time.perf_counter())
        self.assertEqual(summary.root_name, "main")
        self.assertEqual(summary.workers, 2)
        self.assertTrue(all(s.parent is tracer.root for s in tracer.spans if s.name == "work"))


class Installing(unittest.TestCase):
    def test_wraps_every_module_reference_and_restores(self):
        pkg = types.ModuleType("fakepkg")
        a = types.ModuleType("fakepkg.a")
        b = types.ModuleType("fakepkg.b")

        def f(x):
            return x + 1

        class Box:
            @staticmethod
            def make(x):
                return [x]

        a.f, a.Box = f, Box
        b.f = pkg.f = f
        sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
        try:
            tracer = Tracer()
            tracer.install("fakepkg", [("fakepkg.a", "f", None), ("fakepkg.a", "Box.make", None)])
            self.assertIsNot(b.f, f)
            self.assertIs(a.f, b.f)
            self.assertIs(pkg.f, b.f)
            self.assertEqual(b.f(1), 2)
            self.assertEqual(Box.make(3), [3])
            self.assertEqual([s.name for s in tracer.spans], ["f", "make"])
            tracer.uninstall()
            self.assertIs(a.f, f)
            self.assertIs(b.f, f)
            self.assertIsInstance(Box.__dict__["make"], staticmethod)
        finally:
            for name in ("fakepkg", "fakepkg.a", "fakepkg.b"):
                sys.modules.pop(name)


class Counts(unittest.TestCase):
    def test_differing_counts_are_flagged(self):
        cycles = [{"average_ranks.calls": 3, "cca.busy_s": 1.0}, {"average_ranks.calls": 4, "cca.busy_s": 3.0}]
        metrics, mismatches = layers.per_layer_metrics(cycles, 0.05)
        self.assertEqual(mismatches, ["average_ranks.calls: [3, 4]"])
        self.assertEqual(metrics["cca.busy_s"]["value"], 2.0)
        self.assertEqual(metrics["trace.overhead_ratio"]["value"], 0.05)

    def test_cut_operations_add_time_but_no_counts(self):
        cut = summarize([span("main", 0.0, 3.0)], 3.0)
        metrics = layers.cycle_metrics([(cut, 3.0, True)])
        self.assertEqual(metrics.get("main.calls", 0), 0)
        self.assertAlmostEqual(metrics["main.busy_s"], 3.0)


class Deadline(unittest.TestCase):
    def test_expiry_interrupts_a_busy_loop(self):
        started = time.perf_counter()
        with self.assertRaises(spans.DeadlineExceeded):
            with spans.deadline(0.2):
                while time.perf_counter() - started < 5.0:
                    pass
        elapsed = time.perf_counter() - started
        self.assertGreaterEqual(elapsed, 0.2)
        self.assertLess(elapsed, 1.0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_fast_body_is_not_interrupted(self):
        with spans.deadline(5.0):
            value = sum(range(1000))
        self.assertEqual(value, 499500)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_harness(self):
        spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layers.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
