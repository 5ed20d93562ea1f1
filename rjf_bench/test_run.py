#!/usr/bin/env python3
"""Unit cases for run.py's statistical output checks.

  python3 rjf_bench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def binomial(n, k):
    return {"kind": "binomial", "n": n, "k": k}


class BinomialCheck(unittest.TestCase):
    def passes(self, point, ref):
        return run.check_point(point, ref)[1]

    def test_all_detected_reference_allows_a_few_misses(self):
        # P_det exactly 1 in the reference: two misses in a tenth of its
        # trials are compatible with it.
        self.assertTrue(self.passes(binomial(16000, 15998),
                                    binomial(160000, 160000)))
        self.assertTrue(self.passes(binomial(960, 958), binomial(9600, 9600)))

    def test_none_detected_reference_allows_a_few_hits(self):
        self.assertTrue(self.passes(binomial(960, 2), binomial(9600, 0)))

    def test_exact_match_passes(self):
        self.assertTrue(self.passes(binomial(16000, 16000),
                                    binomial(160000, 160000)))
        self.assertTrue(self.passes(binomial(8000, 2430),
                                    binomial(160000, 48608)))

    def test_shifted_detection_rate_fails(self):
        # One miss in a hundred against none in the reference.
        self.assertFalse(self.passes(binomial(16000, 15840),
                                     binomial(160000, 160000)))
        # P_det 0.30 against a reference of 0.304 is fine; 0.25 is not.
        self.assertTrue(self.passes(binomial(8000, 2400),
                                    binomial(160000, 48608)))
        self.assertFalse(self.passes(binomial(8000, 2000),
                                     binomial(160000, 48608)))


if __name__ == "__main__":
    unittest.main()
