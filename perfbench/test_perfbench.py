"""Self-tests for the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout; the generator tests import ./src.
"""

from __future__ import annotations

import json
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_level_needs_ten_operations_beyond(self):
        self.assertIsNone(measure.tail_level(99))
        self.assertEqual(measure.tail_level(100), 90)
        self.assertEqual(measure.tail_level(999), 90)
        self.assertEqual(measure.tail_level(1000), 99)
        self.assertEqual(measure.tail_level(3776), 99)
        self.assertEqual(measure.tail_level(10000), Fraction("99.9"))

    def test_nearest_rank_leaves_ten_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(measure.percentile(values, Fraction(99)), 990)
        self.assertEqual(measure.percentile(values, Fraction(50)), 500)
        self.assertEqual(sum(v > 990 for v in values), 10)

    def test_op_latencies_use_per_operation_medians(self):
        # operation 3 is slow in one pass only; its median is 3
        passes = [[1, 2, 3, 4], [1, 2, 30, 4], [1, 2, 3, 4]]
        self.assertEqual(measure.op_latencies(passes), (2.5, 4, "max"))
        many = [[float(i) for i in range(1, 1001)]] * 3
        self.assertEqual(measure.op_latencies(many)[1:], (990.0, "p99"))


class HostScaling(unittest.TestCase):
    def test_steady_host_keeps_the_median_pass(self):
        ref = measure.REFERENCE_S
        self.assertAlmostEqual(measure.host_scaled([3.0, 1.0, 2.0], [ref] * 4), 2.0)

    def test_slow_stretch_is_divided_out(self):
        ref = measure.REFERENCE_S
        # the host runs at half speed from the second pass on: the pass that
        # straddles the change reads 8/3, the others 2
        scaled = measure.host_scaled([2.0, 4.0, 4.0], [ref, ref, 2 * ref, 2 * ref])
        self.assertAlmostEqual(scaled, 2.0)

    def test_needs_a_reference_around_every_pass(self):
        with self.assertRaises(ValueError):
            measure.host_scaled([1.0, 1.0], [1.0, 1.0])


class LogLogFit(unittest.TestCase):
    def test_power_laws(self):
        self.assertAlmostEqual(measure.loglog_slope(100, 3.0, 200, 24.0), 3.0)
        self.assertAlmostEqual(measure.loglog_slope(30, 2.0, 60, 2.0), 0.0)
        self.assertAlmostEqual(measure.loglog_slope(2, 1.0, 8, 2.0), 0.5)

    def test_nothing_measured(self):
        self.assertEqual(measure.loglog_slope(100, 0.0, 200, 1.0), 0.0)


class SpanSelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        # root [0,100] has children [10,40] and [50,90]; the second has a child [60,70]
        s = [["cli.run", 0, 100, -1, 0], ["planner.plan", 10, 40, 0, 0],
             ["plsim.realize", 50, 90, 0, 0], ["arcs.min_circle_cover", 60, 70, 2, 0]]
        self.assertEqual([round(x * 1e9) for x in spans.self_times(s)], [30, 30, 30, 10])
        self.assertAlmostEqual(sum(spans.self_times(s)), 100 / 1e9)

    def test_reentrant_calls_counted_once(self):
        s = [["plsim.realize", 0, 10, -1, 0], ["planner.plan", 1, 9, 0, 0],
             ["plsim.realize", 2, 8, 1, 0]]
        self.assertEqual(spans.outermost(s), [True, True, False])

    def test_tracer_records_nested_layers(self):
        lib = run.load_library()
        tracer = spans.Tracer()
        traced = tracer.install()
        try:
            tracer.op = 7
            spec = lib.topology.spec_from_json(
                {"g": 2, "s": 1, "a": 0, "target": "P1", "k": 4, "deg": [2]})
            p = traced.planner.plan(spec)
            self.assertTrue(traced.planner.verify_plan(p, spec))
            self.assertIsNot(lib.planner.admissibility_failure, lib.topology.admissibility_failure)
        finally:
            tracer.uninstall()
        names = [s[spans.NAME] for s in tracer.spans]
        self.assertEqual(names[0], "planner.plan")
        self.assertIn("topology.admissibility_failure", names)
        self.assertIn("constructions.execute_states", names)
        self.assertTrue(all(s[spans.OP] == 7 for s in tracer.spans))
        self.assertEqual(tracer.calls["constructions.execute_states"], 1)
        self.assertEqual(tracer.yields["constructions.execute_states"], len(p.steps) + 1)
        self.assertIs(lib.planner.admissibility_failure, lib.topology.admissibility_failure)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            a, b, c = (json.dumps(wl.generate(seed), sort_keys=True) for seed in (1, 1, 2))
            self.assertEqual(a, b, name)
            if wl.seeded:
                self.assertNotEqual(a, c, name)
            else:
                self.assertEqual(a, c, name)

    def test_requests_stream_shape(self):
        reqs = workloads.Requests().generate(3)["requests"]
        self.assertEqual(len(reqs), 1000)
        kinds = [r["label"].split(":", 1)[-1] for r in reqs]
        for defect in workloads.KNOWN_DEFECTS:
            self.assertEqual(kinds.count(defect), 1)
        for command in workloads.REQUESTS_COMMANDS:
            self.assertEqual(kinds.count(command), workloads.REQUESTS_EACH)
        self.assertEqual(sum(r["label"].startswith("bad:") for r in reqs), workloads.REQUESTS_BAD)

    def test_known_defect_only_with_its_recorded_cause(self):
        req = {"label": "bad:bad_seed_g_str_realize", "argv": [], "rc": 1}
        outputs = [(0, '{"k": 4}\n', None), (None, "", TypeError("boom")),
                   (1, '{"error": 1}\n', None)]
        result = workloads.PassResult(0.0, [0.0] * 3, outputs)
        fails = workloads.Requests().check(None, {"requests": [req] * 3}, result)
        self.assertEqual([(f.op, f.known) for f in fails], [(0, True), (1, False)])

    def test_seeded_specs_stay_admissible(self):
        for seed in range(20):
            for item in workloads.PlDeep().generate(seed):
                self.assertTrue(workloads.oracle_plannable(item["spec"]), item)
            for t in workloads.Covnum().generate(seed):
                self.assertTrue(1 <= t["kcov"] <= t["s"], t)


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         [(n, u) for n, u, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         run.per_layer_metrics())


if __name__ == "__main__":
    unittest.main()
