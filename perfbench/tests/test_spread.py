"""The run-to-run stability check of `run.py spread` can fail.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402


class SpreadGate(unittest.TestCase):
    def test_a_spread_beyond_its_bound_fails(self):
        steady = [1.0 + 0.002 * i for i in range(10)]
        wide = [1.0 + 0.1 * i for i in range(10)]
        v = run.spreads(
            {"op_p50_s": steady, "peak_rss_mb": wide, "setup_s": wide},
            {"op_p50_s": 0.1, "peak_rss_mb": 0.1, "setup_s": 0.25},
        )
        self.assertTrue(v["op_p50_s"][-1])
        self.assertLess(v["op_p50_s"][3], 0.02)
        self.assertFalse(v["peak_rss_mb"][-1], "a ten-value spread of ~0.4 exceeds 0.1")
        self.assertFalse(v["setup_s"][-1], "set-up time is held to its bound too")

    def test_quartiles_are_pythons(self):
        # statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        v = run.spreads({"m": [float(i) for i in range(1, 11)]}, {"m": 1.0})["m"]
        self.assertEqual((v[1], v[2]), (2.75, 8.25))
        self.assertAlmostEqual(v[3], 5.5 / 5.5)


if __name__ == "__main__":
    unittest.main()
