#!/usr/bin/env python3
"""Tests for perfgate's decision rule, on synthetic run pairs (no builds)."""

import contextlib
import importlib.util
import io
import os
import unittest
from unittest import mock

_PERFGATE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "perfgate.py")
_spec = importlib.util.spec_from_file_location("perfgate", _PERFGATE_PATH)
perfgate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfgate)

PIN = ("7822807077767781553", "1123444")
N = perfgate.PAIRS
VARIED = [90, 95, 100, 105, 110] * (N // 5)  # base rates that differ by pair


def run(rate, correct=True, failed=0, pin=PIN, setup=0.01, rss=30.0):
    header = {"fingerprint": pin[0], "events_per_rep": int(pin[1])}
    return {"header": header, "correct": correct, "failed": failed,
            "rate": rate, "setup": setup, "rss": rss}


def runs(rates, **kwargs):
    return [run(rate, **kwargs) for rate in rates]


def even():
    return runs([100] * N)


def judge(base, head):
    return perfgate.judge("dd-mixed", base, head, PIN)


class DecisionRuleTest(unittest.TestCase):
    def test_signed_rank_tail_probabilities(self):
        p = perfgate.signed_rank_p

        def lost(ks):  # HEAD loses the pairs of size rank k in ks (1..N)
            return [(100, 100 - k) if k in ks else (100, 100 + k)
                    for k in range(1, N + 1)]

        everything = set(range(1, N + 1))
        self.assertEqual(p(lost(everything)), 1 / 2 ** N)
        self.assertEqual(p([(100, 100)] * N), 1.0)  # all ties
        # 52 of the 55 rank points: 5 of the 1024 sign patterns reach it.
        self.assertEqual(p(lost(everything - {3})), 5 / 2 ** N)
        self.assertLessEqual(p(lost(everything - {3})), perfgate.ALPHA)
        self.assertGreater(p(lost(everything - {4})), perfgate.ALPHA)

    def test_large_loss_in_most_pairs_fails(self):
        row, reasons = judge(even(), runs([80] * (N - 1) + [120]))
        self.assertEqual((row["wins"], row["losses"], row["verdict"]),
                         (1, N - 1, "FAIL"))
        self.assertAlmostEqual(row["ratio"], 0.8)
        self.assertEqual(len(reasons), 1)

    def test_loss_within_the_floor_in_every_pair_passes(self):
        row, reasons = judge(runs(VARIED), runs([0.96 * r for r in VARIED]))
        self.assertEqual((row["losses"], row["p"]), (N, 1 / 2 ** N))
        self.assertEqual((reasons, row["verdict"]), ([], "pass"))

    def test_loss_beyond_the_floor_in_every_pair_fails(self):
        _, reasons = judge(runs(VARIED), runs([0.9 * r for r in VARIED]))
        self.assertEqual(len(reasons), 1, reasons)
        self.assertIn("10.0% below", reasons[0])

    def test_lower_median_without_a_significant_loss_passes(self):
        row, reasons = judge(even(), runs([80] * 7 + [110] * (N - 7)))
        self.assertEqual((round(row["ratio"], 6), reasons), (0.8, []))
        self.assertGreater(row["p"], perfgate.ALPHA)

    def test_all_ties_pass(self):
        row, reasons = judge(even(), even())
        self.assertEqual((row["wins"], row["losses"], reasons), (0, 0, []))

    def test_setup_and_rss_medians_are_reported_not_gated(self):
        base = runs([100] * N, setup=0.010, rss=30.0)
        head = runs([100] * N, setup=0.020, rss=45.5)
        # A run without the metrics is skipped.
        head[0] = run(100, setup=None, rss=None)
        head[1] = run(100, setup=0.001, rss=10.0)
        row, reasons = judge(base, head)
        self.assertEqual(reasons, [])
        self.assertEqual((row["base_setup"], row["head_setup"]), (0.010, 0.020))
        self.assertEqual((row["base_rss"], row["head_rss"]), (30.0, 45.5))
        self.assertIn("| pass | 10.00 | 20.00 | 30.00 | 45.50 |",
                      perfgate.table([row]))

    def test_bad_run_on_either_side_fails(self):
        for bad, text in ((run(100, correct=False), "correct: False"),
                          (run(100, failed=3), "failed: 3")):
            for side in (0, 1):
                sides = [even(), even()]
                sides[side][2] = bad
                _, reasons = judge(*sides)
                self.assertEqual(len(reasons), 1, reasons)
                self.assertIn(text, reasons[0])

    def test_missing_result_fails(self):
        _, reasons = judge(even(), [perfgate.parse_run("")] + even()[1:])
        self.assertEqual(len(reasons), 2, reasons)  # not correct, no header

    def test_head_header_off_the_pin_fails(self):
        off = run(100, pin=(PIN[0], "1123445"))
        _, reasons = judge(even(), even()[1:] + [off])
        self.assertEqual(len(reasons), 1, reasons)
        self.assertIn("differs from the pin", reasons[0])

    def test_base_header_off_heads_pin_passes(self):
        # A change may re-pin on purpose: only HEAD's runs meet the pin.
        _, reasons = judge(runs([100] * N, pin=("1", "2")), even())
        self.assertEqual(reasons, [])

    def test_head_only_workload_gets_the_run_checks_alone(self):
        row, reasons = judge(None, runs([50] * N))
        self.assertEqual((reasons, row["ratio"], row["verdict"]),
                         ([], None, "pass (HEAD only)"))
        head = even()[2:] + [run(100, correct=False), run(100, pin=("1", "2"))]
        self.assertEqual(len(judge(None, head)[1]), 2)

    def test_workload_the_base_lacks_is_not_run_there(self):
        wls = {"base": ["dd-mixed"], "head": ["dd-mixed", "new-wl"]}
        calls, out = [], io.StringIO()

        def fake_run_once(tree, workload):
            calls.append((os.path.basename(tree), workload))
            return run(100)

        with mock.patch.object(perfgate, "run_once", fake_run_once), \
                mock.patch.object(perfgate, "workloads_of",
                                  lambda tree: wls[os.path.basename(tree)]), \
                mock.patch.object(perfgate, "read_pins",
                                  lambda path: {"dd-mixed": PIN,
                                                "new-wl": PIN}), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = perfgate.main(["perfgate.py", "/t/base", "/t/head"])
        self.assertEqual(code, 0, out.getvalue())
        self.assertEqual(sorted(set(calls)), [
            ("base", "dd-mixed"), ("head", "dd-mixed"), ("head", "new-wl")])
        self.assertEqual(len(calls), 3 * N)
        self.assertIn("| new-wl | - | 100 | - | 0/0 | - | pass (HEAD only) | "
                      "- | 10.00 | - | 30.00 |", out.getvalue())

    def test_parse_run_reads_header_verdict_and_rate(self):
        stdout = (
            'run header: {"events_per_rep": 1123444, '
            '"fingerprint": "7822807077767781553", "workload": "dd-mixed"}\n'
            '{"correct": true, "attempted": 9, "failed": 0, "metrics": '
            '{"sim_ios_per_s": {"value": 631500.5, "unit": "IO/s"}, '
            '"setup_s": {"value": 0.0066, "unit": "s"}, '
            '"peak_rss_mb": {"value": 34.8, "unit": "MB"}}}\n')
        parsed = perfgate.parse_run(stdout)
        self.assertEqual((parsed["correct"], parsed["failed"], parsed["rate"],
                          parsed["setup"], parsed["rss"]),
                         (True, 0, 631500.5, 0.0066, 34.8))
        self.assertEqual(judge([parsed] * N, [parsed] * N)[1], [])


if __name__ == "__main__":
    unittest.main()
