"""Self-tests for the benchmark's own checker, tracer, deadline and tail statistic.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import os
import shutil
import sys
import time
import unittest

import run

run.import_program()

import checks  # noqa: E402
import u2metrics as u  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from u2metrics.catalog import catalog_get  # noqa: E402
from u2metrics.classify import PredicateResult, sample_grid  # noqa: E402
from u2metrics.geometry import EndReport  # noqa: E402


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.reference = checks.load("reference.json")["distance"]
        self.goldens = checks.load("sweep_goldens.json")

    def test_rejects_wrong_hirzebruch_upper_distance(self):
        ref = self.reference["hirzebruch/upper"]
        self.assertIsNotNone(checks.check_distance(4.1506, ref))
        self.assertIsNone(checks.check_distance(0.683529062071509, ref))
        golden = self.goldens["hirzebruch"]
        rep = EndReport("upper", golden["upper"]["kind"], True, golden["upper"]["self_intersection"],
                        diagnostics={"distance_to_end": 4.1506})
        self.assertIn("distance", checks.check_end(rep, golden, ref))

    def test_infinite_distance_must_be_inf(self):
        self.assertIsNone(checks.check_distance(float("inf"), "inf"))
        self.assertIsNotNone(checks.check_distance(1e300, "inf"))
        self.assertIsNotNone(checks.check_distance(float("nan"), 1.0))

    def test_rejects_report_missing_an_expected_tag(self):
        golden = self.goldens["fubini-study"]
        report = u.classify(catalog_get("fubini-study"))
        self.assertIsNone(checks.check_classify(report, golden, with_t=False))
        dropped = golden["expected_tags"][0]
        old = report.entries[dropped]
        report.entries[dropped] = PredicateResult(old.name, "no", old.residual, old.certificate)
        self.assertIn(dropped, checks.check_classify(report, golden, with_t=False))

    def test_compare_text_tolerance(self):
        self.assertIsNone(checks.compare_text("a=1.0000000001 b\n", "a=1.0 b\n"))
        self.assertIsNotNone(checks.compare_text("a=1.001 b\n", "a=1.0 b\n"))
        self.assertIsNotNone(checks.compare_text("a=1.0 c\n", "a=1.0 b\n"))
        self.assertIsNotNone(checks.compare_text("a=1.0 2\n", "a=1.0\n"))
        self.assertIsNone(checks.compare_text("d=inf x=3e-15\n", "d=inf x=-2e-14\n"))

    def test_bt_search_check_rejects_a_misreported_residual(self):
        op = workloads._bt_op(1.0, 2)
        traj, res = op.call()
        self.assertIsNone(op.check((traj, res)))
        self.assertIsNotNone(op.check((traj, res * (1 + 1e-3))))


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tracer = Tracer()
        self.tracer.install()

    def tearDown(self):
        self.tracer.uninstall()

    def test_one_curvature_sample_per_grid_point(self):
        m = catalog_get("page")
        points = len(sample_grid(m.domain, 24))
        self.tracer.begin_op(0, "classify")
        u.classify(m, grid_n=24)  # looked up at call time, so the wrapper runs
        self.tracer.end_op("ok")
        agg = self.tracer.ops[0]["agg"]
        self.assertEqual(agg["curvature.curvature_sample"][0], points)
        spans = [s for s in self.tracer.spans if s[3] == "curvature.curvature_sample"]
        parents = {s[1] for s in spans}
        (classify_span,) = [s for s in self.tracer.spans if s[3] == "classify.classify"]
        self.assertEqual(len(spans), points)
        self.assertEqual(parents, {classify_span[0]})
        self.assertEqual(classify_span[1], self.tracer.ops[0]["span_id"])
        self.assertGreaterEqual(agg["classify.classify"][1], agg["classify.classify"][2])

    def test_no_exppoly_on_a_bt_search_operation(self):
        op = workloads._bt_op(0.5, 1)
        rec = run.run_in_process(op, 30.0, self.tracer, op_id=0)
        self.assertEqual(rec["status"], "ok")
        agg = self.tracer.ops[0]["agg"]
        self.assertNotIn("exppoly.eval", agg)
        self.assertGreater(agg["btflat.bt_rhs"][0], 0)

    def test_uninstall_restores_originals(self):
        cmod = sys.modules["u2metrics.classify"]
        self.assertTrue(hasattr(cmod.curvature_sample, "__wrapped__"))
        self.tracer.uninstall()
        self.assertFalse(hasattr(cmod.curvature_sample, "__wrapped__"))


class DeadlineTest(unittest.TestCase):
    def test_deadline_fails_a_slow_operation(self):
        def spin():
            while True:
                pass

        op = workloads.Op("slow", "spin forever", spin, lambda r: None)
        t0 = time.perf_counter()
        rec = run.run_in_process(op, 0.2)
        self.assertLess(time.perf_counter() - t0, 2.0)
        self.assertEqual(rec["status"], "deadline")
        run._scale(rec, 1.7, 0.2)
        self.assertEqual(rec["latency_s"], 0.2)  # enters the figures at the deadline

    def test_deadline_kills_a_slow_child(self):
        workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
        try:
            op = workloads.Op("cli", "slow search", argv=("bt", "search", "--t", "1", "--trials", "100000"))
            rec = run.run_child(op, 1.0, {"stdout": ""}, workdir, workloads.cli_env(run.ROOT))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        self.assertEqual(rec["status"], "deadline")
        run._scale(rec, 1.7, 1.0)
        self.assertEqual(rec["latency_s"], 1.0)

    def test_raise_is_a_failure(self):
        op = workloads.Op("bad", "raises", lambda: 1 / 0, lambda r: None)
        rec = run.run_in_process(op, 1.0)
        self.assertEqual(rec["status"], "raised")
        self.assertIn("ZeroDivisionError", rec["reason"])


class TailTest(unittest.TestCase):
    def test_few_samples_give_the_maximum(self):
        self.assertEqual(run.tail(range(11)), (10, 100.0))
        self.assertEqual(run.tail(range(19)), (18, 100.0))

    def test_eleventh_largest_with_enough_samples(self):
        self.assertEqual(run.tail(range(100)), (89, 90.0))


if __name__ == "__main__":
    unittest.main()
