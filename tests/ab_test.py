#!/usr/bin/env python3
"""Unit tests for the verdict rule of scripts/ab.py, run by ctest.

Drives ab.verdict on crafted per-pair runs: a gain needs 9/10 wins and a
median gap beyond both the parent's IQR and half the bound, a regression
is a median worse than the bound, wide overlapping runs are unresolved,
and the direction of every comparison follows the metric's `better`.
"""

import importlib.util
import os
import pathlib
import unittest

SCRIPT = os.environ.get(
    "AB_SCRIPT",
    str(pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ab.py"))

_spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# Ten parent runs with a median of 10.0 and an IQR of 0.1 (1%).
PARENT = [9.90, 9.95, 9.96, 9.98, 10.0, 10.0, 10.02, 10.04, 10.05, 10.1]


class VerdictTest(unittest.TestCase):
    def test_ten_clear_wins_are_a_gain(self):
        change = [p - 1.5 for p in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, "lower", 0.2),
                         ("gain", 10))

    def test_nine_wins_suffice_eight_do_not(self):
        nine = [p - 1.5 for p in PARENT[:9]] + [PARENT[9] + 0.5]
        self.assertEqual(ab.verdict(PARENT, nine, "lower", 0.2), ("gain", 9))
        eight = [p - 1.5 for p in PARENT[:8]] + [p + 0.5 for p in PARENT[8:]]
        self.assertEqual(ab.verdict(PARENT, eight, "lower", 0.2),
                         ("no-regression", 8))

    def test_wins_inside_the_parent_iqr_are_not_a_gain(self):
        change = [p - 0.01 for p in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, "lower", 0.2),
                         ("no-regression", 10))

    def test_a_steady_shift_under_half_the_bound_is_not_a_gain(self):
        # 5% better in every pair, far beyond the parent's 1% IQR, but
        # under half of a 20% bound.
        change = [p - 0.5 for p in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, "lower", 0.2),
                         ("no-regression", 10))
        # Just over half the bound is a gain.
        change = [p - 1.05 for p in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, "lower", 0.2),
                         ("gain", 10))
        # rss_mb of two checkouts of one commit (MB, bound 0.1): the second
        # read 3 MB lower in every pair.
        first = [407.5, 407.6, 407.6, 407.7, 407.6, 407.6, 407.5, 407.5,
                 408.5, 407.5]
        second = [404.5, 404.5, 404.6, 404.5, 407.4, 404.3, 404.5, 404.4,
                  404.3, 405.2]
        self.assertEqual(ab.verdict(first, second, "lower", 0.1),
                         ("no-regression", 10))

    def test_direction_follows_better(self):
        change = [p + 1.5 for p in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, "higher", 0.2),
                         ("gain", 10))
        self.assertEqual(ab.verdict(PARENT, change, "lower", 0.2),
                         ("no-regression", 0))

    def test_median_worse_than_the_bound_is_a_regression(self):
        change = [p * 1.25 for p in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, "lower", 0.2),
                         ("regression", 0))
        change = [p * 0.75 for p in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, "higher", 0.2),
                         ("regression", 0))
        # Within the bound: worse, but not a regression.
        change = [p * 1.15 for p in PARENT]
        self.assertEqual(ab.verdict(PARENT, change, "lower", 0.2),
                         ("no-regression", 0))

    def test_wide_overlapping_runs_are_unresolved(self):
        wide = [5.0, 6.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 14.0, 15.0]
        change = list(reversed(wide))
        self.assertEqual(ab.verdict(wide, change, "lower", 0.2)[0],
                         "unresolved")
        # The change side alone being wide is enough.
        self.assertEqual(ab.verdict(PARENT, wide, "lower", 0.2)[0],
                         "unresolved")

    def test_wide_runs_that_never_overlap_are_resolved(self):
        parent = [20.0, 24.0, 28.0, 30.0, 32.0, 34.0, 36.0, 38.0, 40.0, 44.0]
        change = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        self.assertEqual(ab.verdict(parent, change, "lower", 0.2),
                         ("gain", 10))

    def test_identical_runs_are_no_regression(self):
        self.assertEqual(ab.verdict(PARENT, list(PARENT), "lower", 0.2),
                         ("no-regression", 0))
        ones = [1.0] * 10
        self.assertEqual(ab.verdict(ones, ones, "higher", 0.01),
                         ("no-regression", 0))

    def test_a_zero_median_does_not_divide(self):
        zeros = [0.0] * 5
        self.assertEqual(ab.verdict(zeros, zeros, "lower", 0.1),
                         ("no-regression", 0))
        self.assertEqual(ab.verdict(zeros, [0.0, 0.0, 0.0, 1.0, 2.0],
                                    "lower", 0.1)[0], "unresolved")

    def test_a_single_pair(self):
        self.assertEqual(ab.verdict([10.0], [8.0], "lower", 0.2),
                         ("gain", 1))
        self.assertEqual(ab.verdict([10.0], [13.0], "lower", 0.2),
                         ("regression", 0))


if __name__ == "__main__":
    unittest.main()
