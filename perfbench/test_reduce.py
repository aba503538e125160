#!/usr/bin/env python3
"""Self-tests of the benchmark's reducers on hand-built inputs.

    python3 perfbench/test_reduce.py
"""

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import reduce  # noqa: E402


def span(name, ts, dur, tid=1, cat="perfbench"):
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur, "tid": tid}


class Quartiles(unittest.TestCase):
    def test_exclusive_method(self):
        # statistics.quantiles' default (exclusive) method on 1..9.
        self.assertEqual(reduce.quartiles(range(1, 10)), (2.5, 5.0, 7.5))

    def test_single_value(self):
        self.assertEqual(reduce.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_spread(self):
        self.assertAlmostEqual(reduce.spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), 1.0)
        self.assertEqual(reduce.spread([4.0] * 10), 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_children_are_subtracted(self):
        events = [span("step", 0, 100), span("data", 10, 20), span("fb", 40, 50),
                  span("inner", 45, 10)]
        t = reduce.self_times({"traceEvents": events})
        self.assertAlmostEqual(t["step"]["self_ms"], 0.030)  # 100 - 20 - 50 us
        self.assertAlmostEqual(t["fb"]["self_ms"], 0.040)    # 50 - 10 us
        self.assertAlmostEqual(t["inner"]["self_ms"], 0.010)
        self.assertEqual(t["step"]["calls"], 1)

    def test_threads_do_not_nest(self):
        events = [span("wait", 0, 100, tid=1), span("fwd", 10, 50, tid=2, cat="sched")]
        t = reduce.self_times(events)
        self.assertAlmostEqual(t["wait"]["self_ms"], 0.1)
        self.assertAlmostEqual(t["sched.fwd"]["self_ms"], 0.05)

    def test_siblings_and_instants(self):
        events = [span("a", 0, 10), span("a", 10, 10), {"name": "x", "ph": "i", "ts": 5}]
        t = reduce.self_times(events)
        self.assertEqual(t["a"]["calls"], 2)
        self.assertAlmostEqual(t["a"]["self_ms"], 0.02)


class BubbleShare(unittest.TestCase):
    def test_two_workers_half_busy(self):
        events = [span("fwd", 0, 40, tid=1, cat="sched"), span("bwd", 50, 60, tid=2, cat="sched"),
                  span("pop_wait", 0, 50, tid=2, cat="sched")]
        self.assertAlmostEqual(
            reduce.bubble_share(events, {"sched.fwd", "sched.bwd"}, threads=2, window_us=100),
            0.5)

    def test_window_from_spans(self):
        events = [span("pipeline.forward_backward", 0, 30), span("pipeline.forward_backward", 50, 20)]
        self.assertEqual(reduce.trace_window_us(events, "pipeline.forward_backward"), 50)

    def test_rejects_empty_window(self):
        with self.assertRaises(ValueError):
            reduce.bubble_share([], {"sched.fwd"}, threads=2, window_us=0)


class Verdict(unittest.TestCase):
    base = [10.0, 10.2, 9.8, 10.1, 9.9]

    def test_worse_beyond_bound(self):
        self.assertEqual(compare.verdict(self.base, [13.0, 13.1, 12.9], "lower", 0.1), "worse")

    def test_better_needs_bound_and_separation(self):
        self.assertEqual(compare.verdict(self.base, [8.0, 8.1, 7.9], "lower", 0.1), "better")
        self.assertEqual(compare.verdict(self.base, [9.5, 9.6, 9.4], "lower", 0.1), "unresolved")

    def test_higher_is_better(self):
        self.assertEqual(compare.verdict(self.base, [8.0, 8.1, 7.9], "higher", 0.1), "worse")


if __name__ == "__main__":
    unittest.main()
