"""Pins the benchmark's statistics helpers on synthetic data.

Stdlib only: ``python3 benchmarks/e2e/test_stats.py``.
"""

import math
import unittest

from stats import (derived_self, geomean, iqr_spread, median_of_rounds,
                   percentile, relative_tail, self_times, spearman)


class Percentile(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        data = [10.0, 20.0, 30.0, 40.0, 50.0]
        self.assertEqual(percentile(data, 0), 10.0)
        self.assertEqual(percentile(data, 50), 30.0)
        self.assertEqual(percentile(data, 100), 50.0)
        self.assertAlmostEqual(percentile(data, 90), 46.0)

    def test_order_does_not_matter(self):
        self.assertEqual(percentile([3, 1, 2], 50), 2)

    def test_rejects_nonsense(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 101)


class Geomean(unittest.TestCase):
    def test_is_the_nth_root_of_the_product(self):
        self.assertAlmostEqual(geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(geomean([1.0, 10.0, 100.0]), 10.0)

    def test_a_ratio_and_its_inverse_cancel(self):
        self.assertAlmostEqual(geomean([0.5, 2.0]), 1.0)

    def test_rejects_zero_and_empty(self):
        with self.assertRaises(ValueError):
            geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            geomean([])


class MedianOfRounds(unittest.TestCase):
    def test_a_drifted_round_is_discarded(self):
        rounds = [[10, 11, 12], [10, 11, 12], [50, 55, 60], [9, 11, 13],
                  [10, 11, 12]]
        self.assertEqual(median_of_rounds(rounds), 11)

    def test_differs_from_the_pooled_median(self):
        # two long slow rounds outvote three short fast ones when pooled
        rounds = [[1], [1], [1], [9] * 5, [9] * 5]
        self.assertEqual(median_of_rounds(rounds), 1)

    def test_empty_rounds_are_skipped(self):
        self.assertEqual(median_of_rounds([[], [4, 6], []]), 5)
        with self.assertRaises(ValueError):
            median_of_rounds([[], []])


class RelativeTail(unittest.TestCase):
    def test_drift_between_groups_cancels(self):
        base = [float(x) for x in range(90, 111)]
        fast, slow = base, [1.5 * x for x in base]
        self.assertAlmostEqual(relative_tail([fast, slow], 90),
                               relative_tail([fast], 90))
        self.assertAlmostEqual(relative_tail([fast], 90),
                               percentile(base, 90) / 100.0)

    def test_a_tail_inside_a_group_shows(self):
        calm = [10.0] * 9 + [10.5]
        spiky = [10.0] * 8 + [30.0, 40.0]
        self.assertLess(relative_tail([calm], 90), 1.06)
        self.assertGreater(relative_tail([spiky], 90), 3.0)

    def test_empty_groups_are_skipped(self):
        self.assertEqual(relative_tail([[], [2.0, 2.0, 2.0]], 90), 1.0)


def _span(id, name, parent, start, end):
    return {"id": id, "name": name, "parent": parent, "start": start,
            "end": end}


class SelfTimes(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        spans = [
            _span(0, "http", None, 0.0, 10.0),
            _span(1, "run", 0, 1.0, 9.0),
            _span(2, "inputs", 1, 1.5, 2.5),
            _span(3, "execute", 1, 3.0, 8.0),
        ]
        self.assertEqual(self_times(spans), [2.0, 2.0, 1.0, 5.0])

    def test_self_times_of_a_tree_add_up_to_its_root(self):
        spans = [
            _span(0, "op", None, 0.0, 7.0),
            _span(1, "a", 0, 1.0, 3.0),
            _span(2, "b", 0, 3.5, 6.0),
            _span(3, "c", 2, 4.0, 5.0),
        ]
        self.assertAlmostEqual(sum(self_times(spans)), 7.0)

    def test_by_subtraction_of_separately_called_entry_points(self):
        outer = [12.0, 11.0, 30.0, 12.5, 11.5]   # one slow outlier
        inner = [10.0, 10.5, 9.5, 10.0, 10.2]
        self.assertAlmostEqual(derived_self(outer, inner), 2.0)
        # below the noise it may go negative, and says so
        self.assertLess(derived_self(inner, outer), 0)


class Spearman(unittest.TestCase):
    def test_monotone_series(self):
        self.assertAlmostEqual(spearman([1, 2, 3, 4], [10, 20, 25, 90]), 1.0)
        self.assertAlmostEqual(spearman([1, 2, 3, 4], [9, 7, 5, 1]), -1.0)

    def test_ties_and_infinities_share_ranks(self):
        rho = spearman([1.0, math.inf, math.inf, 2.0], [1.0, 4.0, 3.0, 2.0])
        self.assertAlmostEqual(rho, 0.9486832980505138)

    def test_constant_side_is_undefined(self):
        self.assertIsNone(spearman([1, 1, 1], [1, 2, 3]))


class IqrSpread(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [100, 101, 99, 102, 98, 100, 103, 97, 100, 100]
        # quartiles 98.75 and 101.25 around a median of 100
        self.assertAlmostEqual(iqr_spread(values), 0.025)


if __name__ == "__main__":
    unittest.main()
