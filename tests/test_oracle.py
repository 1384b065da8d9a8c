import itertools
import random

import numpy as np
import pytest

import gibbscache as gc
from gibbscache.errors import CapacityError
from gibbscache.gibbs import state_masks
from gibbscache.oracle import TIE_RTOL, hit_rate_bounds
from gibbscache.realcache import most_popular_columns
from conftest import random_instance


def ulp_tie_instance(scale=1.0):
    """Four maximizers whose hit rates are equal sums taken in different
    orders, so they differ by ulps."""
    top = gc.from_intervals([(0.1, 0.6), (0.1 * 3, 0.1 * 6)])
    return top, gc.ContentCatalog(tuple(scale * x for x in (0.1, 0.7, 0.1)))


class TestEnumerateOptimal:
    def test_line_instance(self, line2_topology, line2_catalog):
        report = gc.enumerate_optimal(line2_topology, line2_catalog, 1)
        assert report.argmax == (((2,), (1,)),)
        assert report.unique
        assert report.h_max == pytest.approx(0.765, abs=1e-12)
        assert report.h_min == pytest.approx(0.45, abs=1e-12)
        assert report.delta == pytest.approx(0.315, abs=1e-12)

    def test_reports_ties(self):
        # Two disjoint identical cells with equal popularity: any placement
        # storing one content per station is optimal, all four tie.
        top = gc.from_segments(2, {(1,): 1.0, (2,): 1.0})
        cat = gc.ContentCatalog((0.2, 0.2))
        report = gc.enumerate_optimal(top, cat, 1)
        assert not report.unique
        assert len(report.argmax) == 4
        assert report.delta == pytest.approx(0.0, abs=1e-15)

    def test_ties_do_not_depend_on_scale(self):
        # An absolute tolerance stops covering the maximizers' ulp
        # differences once the rates are large.
        argmaxes = []
        for scale in (1e-3, 1.0, 1e3):
            argmaxes.append(gc.enumerate_optimal(*ulp_tie_instance(scale), 2).argmax)
        assert len(argmaxes[0]) == 4
        assert all(a == argmaxes[0] for a in argmaxes)

    def test_matches_direct_scan(self):
        # Cross-check the extremes and the argmax against the literal
        # hit-rate function over the full configuration list.  On the
        # ulp-tie instance h_max must be the largest maximizer's rate,
        # whatever the scan order.
        rng = random.Random(31)
        instances = [random_instance(rng) for _ in range(15)] + [(*ulp_tie_instance(), 2)]
        for top, cat, k in instances:
            report = gc.enumerate_optimal(top, cat, k)
            cands, _ = state_masks(cat.m_contents, top.n_bs, k)
            rates = {
                s: gc.hit_rate(top, cat, gc.Placement.from_columns(cat.m_contents, s, k))
                for s in itertools.product(cands, repeat=top.n_bs)
            }
            assert report.h_max == max(rates.values())
            assert report.h_min == min(rates.values())
            floor = report.h_max - TIE_RTOL * abs(report.h_max)
            assert report.argmax == tuple(s for s, h in rates.items() if h >= floor)

    def test_one_station_past_the_column_gate(self):
        # C(20,8) = 125,970 columns: one station has only that many states,
        # within the state limit.
        top = gc.from_intervals([(0.0, 2.0)])
        cat = gc.ContentCatalog(tuple(1 / i for i in range(1, 21)))
        report = gc.enumerate_optimal(top, cat, 8)
        best = gc.Placement.from_columns(20, [most_popular_columns(cat.intensities, 8)], 8)
        assert report.argmax == (best.columns(),)
        assert report.h_max == gc.hit_rate(top, cat, best)

    def test_capacity_gate(self):
        top = gc.from_segments(8, {tuple(range(1, 9)): 1.0})
        cat = gc.ContentCatalog(tuple([0.1] * 12))
        with pytest.raises(CapacityError):
            gc.enumerate_optimal(top, cat, 6)


class TestHitRateBounds:
    def test_bracket_exact_extremes(self):
        rng = random.Random(17)
        for top, cat, k in [random_instance(rng, max_n=4, max_m=6, max_k=3) for _ in range(40)]:
            report = gc.enumerate_optimal(top, cat, k)
            low, high = hit_rate_bounds(top, cat, k)
            assert low <= report.h_min * (1 + TIE_RTOL)
            assert report.h_max <= high * (1 + TIE_RTOL)

    def test_line_instance(self, line2_topology, line2_catalog):
        # Segment {1, 2} can hold both contents; alone, each station holds one.
        low, high = hit_rate_bounds(line2_topology, line2_catalog, 1)
        assert low == pytest.approx(0.45, abs=1e-12)
        assert high == pytest.approx(0.775, abs=1e-12)


class TestMostPopularPlacement:
    # Every station holds most_popular_columns; the CLI's baseline evaluates
    # mask_hit_rate at their masks (tests/test_cli.py::TestMostPopularRate).
    def test_columns_identical(self, line2_catalog):
        assert most_popular_columns(line2_catalog.intensities, 1) == (1,)

    def test_line_instance_value(self, line2_topology, line2_catalog):
        h = gc.mask_hit_rate(line2_topology, line2_catalog)
        assert h([0b01, 0b01]) == pytest.approx(0.55)

    def test_k_most_popular(self):
        assert most_popular_columns((0.1, 0.4, 0.2, 0.3), 2) == (2, 4)


class TestIndependentHitRate:
    def test_extremes(self, line2_topology, line2_catalog):
        ones = np.ones((2, 2))
        assert gc.independent_hit_rate(line2_topology, line2_catalog, ones) == pytest.approx(
            0.1 * 10, abs=1e-12
        )
        zeros = np.zeros((2, 2))
        assert gc.independent_hit_rate(line2_topology, line2_catalog, zeros) == 0.0

    def test_degenerate_q_recovers_deterministic_placement(self):
        rng = random.Random(41)
        for _ in range(20):
            top, cat, k = random_instance(rng)
            cols = [
                tuple(sorted(rng.sample(range(1, cat.m_contents + 1), k)))
                for _ in range(top.n_bs)
            ]
            B = gc.Placement.from_columns(cat.m_contents, cols, k)
            assert gc.independent_hit_rate(top, cat, B.matrix.astype(float)) == pytest.approx(
                gc.hit_rate(top, cat, B), abs=1e-12
            )

    def test_monte_carlo_agreement(self, line2_topology, line2_catalog):
        # Sample independent placements and average the exact hit rate.
        rng = random.Random(42)
        q = np.array([[0.7, 0.3], [0.4, 0.9]])
        n = 40000
        acc = 0.0
        lam = line2_catalog.intensities
        for _ in range(n):
            mat = (np.array([[rng.random(), rng.random()], [rng.random(), rng.random()]]) < q)
            h = 0.0
            for s, area in line2_topology.segment_areas.items():
                cols = [j - 1 for j in s]
                stored = mat[:, cols].max(axis=1)
                h += area * sum(lam[i] for i in range(2) if stored[i])
            acc += h
        assert acc / n == pytest.approx(
            gc.independent_hit_rate(line2_topology, line2_catalog, q), rel=0.01
        )

    def test_validation(self, line2_topology, line2_catalog):
        with pytest.raises(ValueError):
            gc.independent_hit_rate(line2_topology, line2_catalog, np.ones((3, 2)))
        with pytest.raises(ValueError):
            gc.independent_hit_rate(line2_topology, line2_catalog, np.full((2, 2), 1.5))


class TestTwoContentMixture:
    def test_line_instance_optimum(self, line2_topology, line2_catalog):
        r_star, value = gc.optimize_two_content_mixture(line2_topology, line2_catalog)
        assert r_star == pytest.approx(0.6, abs=1e-3)
        assert value == pytest.approx(0.63, abs=1e-6)

    def test_value_at_r(self, line2_topology, line2_catalog):
        # Hand value at r = 0.6: 0.051 + 5 * 0.075 + 0.204 = 0.63.
        q = np.tile([[0.6], [0.4]], (1, 2))
        assert gc.independent_hit_rate(line2_topology, line2_catalog, q) == pytest.approx(
            0.63, abs=1e-12
        )

    def test_beats_pure_strategies(self, line2_topology, line2_catalog):
        _, value = gc.optimize_two_content_mixture(line2_topology, line2_catalog)
        for r in (0.0, 1.0):
            q = np.tile([[r], [1 - r]], (1, 2))
            assert value >= gc.independent_hit_rate(line2_topology, line2_catalog, q)

    def test_requires_two_contents(self, line2_topology):
        cat = gc.ContentCatalog((0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            gc.optimize_two_content_mixture(line2_topology, cat)
