import random
from collections import Counter

import pytest

import gibbscache as gc
from gibbscache.traffic import RequestEvent, estimated_local_energy


class TestNextRequest:
    def test_times_strictly_increase(self, line2_topology, line2_catalog):
        rng = random.Random(1)
        tau = 0.0
        for _ in range(1000):
            req = gc.next_request(rng, line2_topology, line2_catalog, tau)
            assert req.time > tau
            tau = req.time

    def test_marks_are_valid(self, line2_topology, line2_catalog):
        rng = random.Random(2)
        for _ in range(500):
            req = gc.next_request(rng, line2_topology, line2_catalog, 0.0)
            assert req.content in (1, 2)
            assert req.segment in line2_topology.segment_areas

    def test_interarrival_mean(self, line2_topology, line2_catalog):
        # Total rate = 0.1 intensity * 10 area = 1 request per unit time.
        rng = random.Random(3)
        n = 20000
        tau = 0.0
        for _ in range(n):
            tau = gc.next_request(rng, line2_topology, line2_catalog, tau).time
        assert tau / n == pytest.approx(1.0, abs=0.03)

    def test_mark_frequencies(self, line2_topology, line2_catalog):
        rng = random.Random(4)
        n = 30000
        contents = Counter()
        segments = Counter()
        for _ in range(n):
            req = gc.next_request(rng, line2_topology, line2_catalog, 0.0)
            contents[req.content] += 1
            segments[req.segment] += 1
        assert contents[1] / n == pytest.approx(0.55, abs=0.01)
        assert segments[frozenset({1})] / n == pytest.approx(0.1, abs=0.01)
        assert segments[frozenset({1, 2})] / n == pytest.approx(0.5, abs=0.01)
        assert segments[frozenset({2})] / n == pytest.approx(0.4, abs=0.01)

    def test_deterministic_for_seed(self, line2_topology, line2_catalog):
        a = [
            gc.next_request(random.Random(9), line2_topology, line2_catalog, 0.0)
            for _ in range(3)
        ]
        assert a[0] == a[1] == a[2]


class TestAssignServer:
    def _placement(self):
        return gc.Placement.from_columns(2, [(1,), (2,)], 1)

    def test_holder_always_serves_without_exploration(self):
        R = self._placement()
        rng = random.Random(5)
        req = RequestEvent(1.0, 1, frozenset({1, 2}))
        for _ in range(200):
            assert gc.assign_server(req, R, rng) == 1

    def test_exclusive_segment_pins_server(self):
        R = self._placement()
        rng = random.Random(6)
        req = RequestEvent(1.0, 2, frozenset({1}))  # miss at station 1
        for _ in range(50):
            assert gc.assign_server(req, R, rng) == 1

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    @pytest.mark.parametrize(
        "content, segment",
        [(1, {1, 2}), (1, {2}), (1, {1}), (2, {1, 2}), (3, {1, 2, 3})],
        ids=["one-holder", "one-covering", "forced-hit", "two-pools", "no-holder"],
    )
    def test_two_draws_for_any_pool(self, content, segment, eta):
        # Whatever the pool, one draw decides exploration and one picks the
        # server, so the server-pick stream does not depend on the caches.
        R = gc.Placement.from_columns(3, [(1,), (2,), (2,)], 1)
        rng, twin = random.Random(12), random.Random(12)
        for _ in range(20):
            req = RequestEvent(1.0, content, frozenset(segment))
            explore, u = twin.random() < eta, twin.random()
            holders = [j for j in sorted(segment) if R.matrix[content - 1, j - 1]]
            pool = sorted(segment) if explore or not holders else holders
            assert gc.assign_server(req, R, rng, eta) == pool[int(u * len(pool))]
            assert rng.getstate() == twin.getstate()

    def test_no_holder_uniform_over_covering(self):
        R = gc.Placement.from_columns(3, [(3,), (3,)], 1)
        rng = random.Random(7)
        req = RequestEvent(1.0, 1, frozenset({1, 2}))
        picks = Counter(gc.assign_server(req, R, rng) for _ in range(4000))
        assert picks[1] / 4000 == pytest.approx(0.5, abs=0.03)

    def test_exploration_rate(self):
        R = self._placement()
        rng = random.Random(8)
        req = RequestEvent(1.0, 1, frozenset({1, 2}))
        eta = 0.3
        picks = Counter(gc.assign_server(req, R, rng, eta) for _ in range(10000))
        # Station 2 (the non-holder) only serves on exploration, uniformly.
        assert picks[2] / 10000 == pytest.approx(eta / 2, abs=0.02)

    def test_eta_validation(self):
        R = self._placement()
        req = RequestEvent(1.0, 1, frozenset({1}))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                gc.assign_server(req, R, random.Random(0), bad)


class TestRateEstimates:
    def test_prior_value(self):
        est = gc.RateEstimates(c0=2.0, t0=4.0)
        assert est.theta(1, frozenset({1})) == pytest.approx(0.5)

    def test_observe_counts_and_clock(self):
        est = gc.RateEstimates()
        s = frozenset({1, 2})
        est.observe(RequestEvent(1.0, 1, s), 1.0)
        est.observe(RequestEvent(2.5, 1, s), 2.5)
        est.observe(RequestEvent(3.0, 2, s), 3.0)
        assert est.counts[(1, s)] == 2
        assert est.counts[(2, s)] == 1
        assert est.elapsed == 3.0
        assert est.theta(1, s) == pytest.approx((2 + 1) / (3 + 1))

    def test_module_level_observe(self):
        est = gc.RateEstimates()
        s = frozenset({1})
        out = gc.observe(est, RequestEvent(1.0, 1, s), 1.0)
        assert out is est and est.counts[(1, s)] == 1

    def test_time_regression_rejected(self):
        est = gc.RateEstimates()
        s = frozenset({1})
        est.observe(RequestEvent(5.0, 1, s), 5.0)
        with pytest.raises(ValueError):
            est.observe(RequestEvent(4.0, 1, s), 4.0)

    def test_always_positive(self):
        est = gc.RateEstimates()
        est.elapsed = 1e9
        assert est.theta(3, frozenset({2})) > 0

    def test_scale_applied(self):
        s = frozenset({1, 2})
        est = gc.RateEstimates(scales={s: 4.0})
        est.counts[(1, s)] = 10
        est.elapsed = 9.0
        assert est.theta(1, s) == pytest.approx((10 * 4.0 + 1) / 10)

    def test_converges_to_segment_rate(self, line2_topology, line2_catalog):
        # Feed the estimator a long synthetic arrival stream; theta(i, s)
        # should approach lambda_i * |C(s)|.
        rng = random.Random(10)
        est = gc.RateEstimates()
        tau = 0.0
        for _ in range(60000):
            req = gc.next_request(rng, line2_topology, line2_catalog, tau)
            tau = req.time
            est.observe(req, tau)
        for i, lam in ((1, 0.055), (2, 0.045)):
            for s, area in line2_topology.segment_areas.items():
                true = lam * area
                assert est.theta(i, s) == pytest.approx(true, rel=0.1)


class TestEstimatedLocalEnergy:
    def test_matches_exact_when_counts_match_rates(self):
        # Choose counts so every estimate equals lambda_i * |C(s)| exactly:
        # count = rate * (elapsed + t0) - c0 with elapsed = 9, c0 = t0 = 1.
        top = gc.from_segments(2, {(1,): 1.0, (1, 2): 5.0, (2,): 4.0})
        cat = gc.ContentCatalog((0.5, 0.3))
        est = gc.RateEstimates()
        est.elapsed = 9.0
        for i, lam in enumerate(cat.intensities, start=1):
            for s, area in top.segment_areas.items():
                count = lam * area * 10 - 1
                assert count == int(count)
                est.counts[(i, s)] = int(count)
        for cols in (((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,))):
            B = gc.Placement.from_columns(2, cols, 1)
            for j in (1, 2):
                assert estimated_local_energy(top, est, B, j) == pytest.approx(
                    gc.local_energy(top, cat, B, j), abs=1e-12
                )

    def test_prior_only_counts_distinct_contents(self, line2_topology):
        # With no observations every (content, segment) estimate equals the
        # prior theta0, so the energy telescopes to theta0 times the number
        # of distinct contents stored per segment, summed over segments.
        est = gc.RateEstimates(c0=2.0, t0=4.0)
        theta0 = 0.5
        # Both stations hold content 1: one distinct content in each of the
        # two segments containing station 1.
        a = estimated_local_energy(
            line2_topology, est, gc.Placement.from_columns(2, [(1,), (1,)], 1), 1
        )
        assert a == pytest.approx(2 * theta0, abs=1e-14)
        # Different contents: the shared segment now holds two.
        b = estimated_local_energy(
            line2_topology, est, gc.Placement.from_columns(2, [(2,), (1,)], 1), 1
        )
        assert b == pytest.approx(3 * theta0, abs=1e-14)
