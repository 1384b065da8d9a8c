import itertools
import math
import random
import tracemalloc
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gibbscache as gc
from gibbscache.errors import CapacityError
from gibbscache.gibbs import (
    expected_hit_rates,
    state_masks,
    state_rates,
    transition_matrices,
    transition_matrix,
)
from gibbscache.model import UnionRates
from gibbscache.realcache import most_popular_columns
from gibbscache.sim import run_chain, substreams
from conftest import random_instance

# Exact Gibbs distribution at beta = 2 on the two-station line instance,
# frozen from exp(2 * h) / Z with the hand-computed hit rates.
PI_BETA2 = {
    ((1,), (1,)): 0.208171874738,
    ((1,), (2,)): 0.301377628857,
    ((2,), (1,)): 0.320013780632,
    ((2,), (2,)): 0.170436715774,
}
ARGMAX = ((2,), (1,))


def three_stations(m_contents):
    """The 3-station interval instance of the exact-tools benchmark."""
    top = gc.from_intervals([(0, 6), (1, 10), (8, 15)])
    return top, gc.ContentCatalog(tuple(0.1 / i for i in range(1, m_contents + 1)))


class TestCandidateColumns:
    # One station's configurations are its candidate columns: the list that
    # conditional_distribution samples from.
    def test_lexicographic(self):
        assert state_masks(4, 1, 2)[0] == [
            (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        ]

    def test_count(self):
        assert len(state_masks(6, 1, 3)[0]) == math.comb(6, 3)

    def test_capacity_gate(self):
        top = gc.from_intervals([(0.0, 1.0)])
        cat = gc.ContentCatalog((0.1,) * 60)
        B = gc.Placement.from_columns(60, [range(1, 31)], 30)
        with pytest.raises(CapacityError):
            gc.conditional_distribution(top, cat, B, 1, 1.0)


class TestGatesOnHugeCounts:
    # Python will not print an int of over 4,300 digits, so the gates must
    # state these counts without converting them.
    def test_candidate_columns(self):
        with pytest.raises(CapacityError, match=r"C\(20000,10000\)\*\*1 ~ 10\^6018\.4"):
            state_masks(20000, 1, 10000)

    def test_state_masks(self):
        # 4060**1300 has about 4,700 digits.
        with pytest.raises(CapacityError, match=r"4060\*\*1300 configurations"):
            state_masks(30, 1300, 3)

    def test_state_masks_on_huge_columns(self):
        # C(20000,10000)**2 has about 12,000 digits.
        with pytest.raises(CapacityError, match=r"C\(20000,10000\)\*\*2 ~ 10\^12036\.7 conf"):
            state_masks(20000, 2, 10000)


class TestConditionalDistribution:
    def test_two_point_logistic(self, line2_topology, line2_catalog):
        # With station 2 holding content 1, station 1's energies are 0.33
        # and 0.545, so P(choose content 2) = 1 / (1 + exp(-beta * 0.215)).
        B = gc.Placement.from_columns(2, [(1,), (1,)], 1)
        for beta in (0.0, 1.0, 10.0, 100.0):
            cands, probs = gc.conditional_distribution(
                line2_topology, line2_catalog, B, 1, beta
            )
            assert cands == [(1,), (2,)]
            expect = 1.0 / (1.0 + math.exp(-beta * 0.215))
            assert probs[1] == pytest.approx(expect, abs=1e-12)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_beta_zero_uniform(self, line2_topology, line2_catalog):
        B = gc.Placement.from_columns(2, [(1,), (2,)], 1)
        _, probs = gc.conditional_distribution(line2_topology, line2_catalog, B, 2, 0.0)
        assert np.allclose(probs, 0.5)

    def test_huge_beta_no_overflow(self, line2_topology, line2_catalog):
        B = gc.Placement.from_columns(2, [(1,), (1,)], 1)
        _, probs = gc.conditional_distribution(line2_topology, line2_catalog, B, 1, 1e6)
        assert np.isfinite(probs).all()
        assert probs[1] == pytest.approx(1.0, abs=1e-12)

    def test_negative_beta_rejected(self, line2_topology, line2_catalog):
        B = gc.Placement.from_columns(2, [(1,), (1,)], 1)
        with pytest.raises(ValueError):
            gc.conditional_distribution(line2_topology, line2_catalog, B, 1, -1.0)


class TestGibbsStep:
    def test_deterministic_for_fixed_streams(self, line2_topology, line2_catalog):
        params = gc.GibbsParams(mode="fixed", beta=2.0)
        B = gc.Placement.from_columns(2, [(1,), (1,)], 1)

        def walk(seed):
            bs, col = random.Random(seed), random.Random(seed + 1)
            V = B
            keys = []
            for t in range(50):
                V = gc.gibbs_step(V, t, params, line2_topology, line2_catalog, bs, col)
                keys.append(V.columns())
            return keys

        assert walk(7) == walk(7)
        assert walk(7) != walk(8)

    def test_advances_clock_and_touches_one_column(self, line2_topology, line2_catalog):
        # Slot t samples at params.beta_at(t): the annealed step equals the
        # fixed step at that beta from the same draws.
        annealed = gc.GibbsParams(mode="annealed", beta0=3.0)
        V = gc.Placement.from_columns(2, [(1,), (1,)], 1)
        for t in range(12):
            nxt, same = (
                gc.gibbs_step(
                    V, t, p, line2_topology, line2_catalog, random.Random(t), random.Random(-t)
                )
                for p in (annealed, gc.GibbsParams(beta=annealed.beta_at(t, 2)))
            )
            assert nxt == same
            changed = [j for j in range(2) if nxt.columns()[j] != V.columns()[j]]
            assert len(changed) <= 1
            V = nxt

    @pytest.mark.parametrize(
        "params", [gc.GibbsParams(beta=2.0), gc.GibbsParams(mode="annealed", beta0=1.0)]
    )
    def test_follows_run_chain(self, params, line2_topology, line2_catalog):
        # Both draw one randrange(N) from bs-pick and one random() from
        # column-sample per slot, so shared streams give the same trajectory.
        top3, cat3 = three_stations(4)
        for top, cat, k in ((line2_topology, line2_catalog, 1), (top3, cat3, 2)):
            n = top.n_bs
            for seed in (1, 2, 3):
                slots = range(1, 301)
                chain, _, _ = run_chain(top, cat, k, params, len(slots), seed, set(slots))
                rngs = substreams(seed)
                start = [most_popular_columns(cat.intensities, k)] * n
                V = gc.Placement.from_columns(cat.m_contents, start, k)
                for t in slots:
                    V = gc.gibbs_step(
                        V, t - 1, params, top, cat, rngs["bs-pick"], rngs["column-sample"]
                    )
                    assert V.columns() == chain[t]

    def test_greedy_at_large_beta(self, line2_topology, line2_catalog):
        # At beta = 1e4 every conditional is effectively a point mass, so a
        # short run must land on (and stay at) the best configuration.
        params = gc.GibbsParams(mode="fixed", beta=1e4)
        V = gc.Placement.from_columns(2, [(1,), (1,)], 1)
        bs, col = random.Random(3), random.Random(4)
        for t in range(20):
            V = gc.gibbs_step(V, t, params, line2_topology, line2_catalog, bs, col)
        assert V.columns() == ARGMAX


class TestAnnealSchedule:
    def test_zero_during_first_period(self):
        for t in range(2):
            assert gc.anneal_beta(0.5, t, 2) == 0.0

    def test_piecewise_constant_log_growth(self):
        n = 3
        for t in range(30):
            assert gc.anneal_beta(1.2, t, n) == pytest.approx(
                1.2 * math.log(1 + t // n), abs=1e-15
            )

    def test_monotone(self):
        vals = [gc.anneal_beta(0.8, t, 2) for t in range(100)]
        assert all(b <= a for b, a in zip(vals, vals[1:]))

    def test_bad_beta0(self):
        with pytest.raises(ValueError):
            gc.anneal_beta(0.0, 5, 2)

    def test_params_beta_at(self):
        fixed = gc.GibbsParams(mode="fixed", beta=3.0)
        assert fixed.beta_at(123, 2) == 3.0
        ann = gc.GibbsParams(mode="annealed", beta0=0.5)
        assert ann.beta_at(10, 2) == pytest.approx(0.5 * math.log(6))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            gc.GibbsParams(mode="annealed", beta0=-1.0)
        with pytest.raises(ValueError):
            gc.GibbsParams(mode="fixed", beta=-0.1)
        with pytest.raises(ValueError):
            gc.GibbsParams(mode="tempered")

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_params_rejected(self, value):
        with pytest.raises(ValueError, match=f"beta must be a finite number >= 0, got {value!r}"):
            gc.GibbsParams(mode="fixed", beta=value)
        with pytest.raises(ValueError, match=f"beta0 must be a finite number > 0, got {value!r}"):
            gc.GibbsParams(mode="annealed", beta0=value)
        with pytest.raises(ValueError, match="beta0 must be a finite number > 0"):
            gc.anneal_beta(value, 5, 2)


class TestValidateBeta0:
    # Line-instance extremes: h_max = 0.765, spread delta = 0.315, N = 2.
    def test_admissible(self):
        chk = gc.validate_beta0(1.0, 0.315, 0.765, 2)
        assert chk.ok and not chk.violations
        assert chk.max_admissible == pytest.approx(1 / 0.765)

    def test_h_max_violation_only(self):
        chk = gc.validate_beta0(1.4, 0.315, 0.765, 2)
        assert not chk.ok
        assert len(chk.violations) == 1
        assert "max hit rate" in chk.violations[0]

    def test_both_violations(self):
        chk = gc.validate_beta0(2.0, 0.315, 0.765, 2)
        assert not chk.ok and len(chk.violations) == 2

    def test_boundary_is_excluded(self):
        chk = gc.validate_beta0(1.0, 0.25, 2.0, 2)
        assert not chk.ok  # beta0 * N * delta == 1 and beta0 * h_max == 2

    def test_zero_spread(self):
        chk = gc.validate_beta0(0.4, 0.0, 2.0, 3)
        assert chk.ok
        assert chk.max_admissible == pytest.approx(0.5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            gc.validate_beta0(1.0, -0.1, 1.0, 2)
        with pytest.raises(ValueError):
            gc.validate_beta0(1.0, 0.1, 0.0, 2)


class TestStationaryDistribution:
    def test_line_instance_beta2(self, line2_topology, line2_catalog):
        dist = gc.stationary_distribution(line2_topology, line2_catalog, 1, 2.0)
        assert set(dist) == set(PI_BETA2)
        for k, v in PI_BETA2.items():
            assert dist[k] == pytest.approx(v, abs=1e-10)

    def test_beta_zero_uniform(self, line2_topology, line2_catalog):
        dist = gc.stationary_distribution(line2_topology, line2_catalog, 1, 0.0)
        assert all(v == pytest.approx(0.25) for v in dist.values())

    def test_concentration_growth(self, line2_topology, line2_catalog):
        # Frozen argmax masses at increasing inverse temperature.
        for beta, mass in ((10.0, 0.526272993696), (50.0, 0.81756004515), (300.0, 0.999876605424)):
            dist = gc.stationary_distribution(line2_topology, line2_catalog, 1, beta)
            assert dist[ARGMAX] == pytest.approx(mass, abs=1e-9)
        assert (
            gc.stationary_distribution(line2_topology, line2_catalog, 1, 300.0)[ARGMAX]
            >= 1 - 1e-3
        )

    def test_sums_to_one(self):
        rng = random.Random(11)
        for _ in range(10):
            top, cat, k = random_instance(rng)
            dist = gc.stationary_distribution(top, cat, k, rng.uniform(0, 5))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_ratio_identity(self):
        # pi(B) / pi(B') = exp(beta * (h(B) - h(B'))) for every pair.
        rng = random.Random(12)
        top, cat, k = random_instance(rng)
        beta = 1.7
        dist = gc.stationary_distribution(top, cat, k, beta)
        keys = list(dist)
        h = {
            key: gc.hit_rate(top, cat, gc.Placement.from_columns(cat.m_contents, key, k))
            for key in keys
        }
        for a in keys[:8]:
            for b in keys[:8]:
                assert dist[a] / dist[b] == pytest.approx(
                    math.exp(beta * (h[a] - h[b])), rel=1e-9
                )


class TestExpectedHitRate:
    def test_beta_zero_is_plain_average(self, line2_topology, line2_catalog):
        assert gc.expected_hit_rate(line2_topology, line2_catalog, 1, 0.0) == pytest.approx(
            0.625, abs=1e-12
        )

    def test_line_instance_beta2(self, line2_topology, line2_catalog):
        assert gc.expected_hit_rate(line2_topology, line2_catalog, 1, 2.0) == pytest.approx(
            0.6575141525969972, abs=1e-12
        )

    def test_approaches_max(self, line2_topology, line2_catalog):
        assert gc.expected_hit_rate(line2_topology, line2_catalog, 1, 500.0) == pytest.approx(
            0.765, abs=1e-6
        )

    def test_many_betas_from_one_scan(self, line2_topology, line2_catalog):
        # One scan weighted per beta must give exactly the one-beta values.
        betas = [0.0, 0.5, 2.0, 17.0, 300.0]
        rng = random.Random(13)
        instances = [(line2_topology, line2_catalog, 1), (*three_stations(6), 2)]
        instances += [random_instance(rng) for _ in range(10)]
        for top, cat, k in instances:
            assert expected_hit_rates(state_rates(top, cat, k)[1], betas) == [
                gc.expected_hit_rate(top, cat, k, b) for b in betas
            ]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.lists(st.floats(0.0, 500.0), max_size=3))
    def test_left_fold_of_weighted_rates(self, seed, betas):
        # Each value is the products weight * rate added left to right from
        # 0.0 in state order, bit for bit, which sum() is not from Python 3.12.
        top, cat, k = random_instance(random.Random(seed), max_m=6)
        rates = state_rates(top, cat, k)[1]
        betas = [0.0, 500.0, *betas]
        for b, value in zip(betas, expected_hit_rates(rates, betas)):
            weights = gc.stationary_distribution(top, cat, k, b).values()
            assert value.hex() == reduce(add, map(mul, weights, rates.tolist()), 0.0).hex()

    def test_negative_beta_rejected(self, line2_topology, line2_catalog):
        for exact in (gc.stationary_distribution, gc.expected_hit_rate, transition_matrix):
            with pytest.raises(ValueError):
                exact(line2_topology, line2_catalog, 1, -0.5)
        rates = state_rates(line2_topology, line2_catalog, 1)[1]
        with pytest.raises(ValueError):
            expected_hit_rates(rates, [1.0, -0.5])
        with pytest.raises(ValueError):
            transition_matrices(rates, 2, [1.0, -0.5])

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_non_finite_beta_rejected(self, beta, line2_topology, line2_catalog):
        # Each entry point names the value instead of returning a NaN law.
        named = f"beta must be a finite number >= 0, got {beta!r}"
        for exact in (gc.stationary_distribution, gc.expected_hit_rate, transition_matrix):
            with pytest.raises(ValueError, match=named):
                exact(line2_topology, line2_catalog, 1, beta)
        rates = state_rates(line2_topology, line2_catalog, 1)[1]
        with pytest.raises(ValueError, match=named):
            expected_hit_rates(rates, [1.0, beta])
        with pytest.raises(ValueError, match=named):
            transition_matrices(rates, 2, [1.0, beta])
        B = gc.Placement.from_columns(2, [(1,), (2,)], 1)
        with pytest.raises(ValueError, match=named):
            gc.conditional_distribution(line2_topology, line2_catalog, B, 1, beta)


class TestBitmaskLaw:
    """``state_rates`` evaluates each state as bitmasks; its rates must equal
    ``model.hit_rate`` of the state's placement exactly."""

    @staticmethod
    def check(top, cat, k):
        cands, rates = state_rates(top, cat, k)
        states = list(itertools.product(cands, repeat=top.n_bs))
        assert cands == state_masks(cat.m_contents, top.n_bs, k)[0]
        assert len(rates) == len(states)
        for key, h in zip(states, rates):
            B = gc.Placement.from_columns(cat.m_contents, key, k)
            assert h == gc.hit_rate(top, cat, B)

    @staticmethod
    def random_catalog(rng):
        m = rng.randint(2, 5)
        cat = gc.ContentCatalog(tuple(rng.uniform(0.05, 1.0) for _ in range(m)))
        return cat, rng.randint(1, min(2, m - 1))

    def test_three_stations(self):
        top, cat = three_stations(6)
        self.check(top, cat, 2)

    def test_random_intervals(self):
        rng = random.Random(61)
        for _ in range(20):
            starts = [rng.uniform(0, 10) for _ in range(rng.randint(1, 3))]
            top = gc.from_intervals([(a, a + rng.uniform(0.5, 6)) for a in starts])
            self.check(top, *self.random_catalog(rng))

    def test_random_discs(self):
        rng = random.Random(62)
        for _ in range(10):
            n = rng.randint(1, 3)
            centers = [(rng.uniform(0, 2), rng.uniform(0, 2)) for _ in range(n)]
            radii = [rng.uniform(0.5, 1.5) for _ in range(n)]
            top = gc.from_discs(centers, radii, 0.1)
            self.check(top, *self.random_catalog(rng))

    @staticmethod
    def check_mask_map(top, cat, k):
        """The scan's rates are the per-state ``mask_hit_rate`` map, bit for bit."""
        _, rates = state_rates(top, cat, k)
        _, masks = state_masks(cat.m_contents, top.n_bs, k)
        h = gc.mask_hit_rate(top, cat)
        ref = np.array(list(map(h, itertools.product(masks, repeat=top.n_bs))))
        assert rates.dtype == np.float64 and rates.shape == ref.shape
        assert rates.tobytes() == ref.tobytes()

    def test_segment_of_stations_apart(self):
        # Stations 2 and 3 do not meet, so segment {1, 3} skips an axis.
        top = gc.from_intervals([(0, 10), (2, 3), (5, 8)])
        assert frozenset({1, 3}) in top.segment_areas
        self.check_mask_map(top, gc.ContentCatalog((0.5, 0.2, 0.9, 0.4, 0.3)), 2)

    def test_segment_of_every_station(self):
        top = gc.from_intervals([(0, 10), (1, 9), (2, 8), (3, 7)])
        assert frozenset({1, 2, 3, 4}) in top.segment_areas
        self.check_mask_map(top, gc.ContentCatalog((0.5, 0.2, 0.9, 0.4, 0.3)), 2)

    def test_random_discs_with_triple_overlaps(self):
        rng = random.Random(63)
        sizes = set()
        for _ in range(8):
            n = rng.randint(3, 4)
            centers = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
            top = gc.from_discs(centers, [rng.uniform(0.6, 1.2) for _ in range(n)], 0.1)
            sizes.update(len(s) for s in top.segment_areas)
            self.check_mask_map(top, *self.random_catalog(rng))
        assert max(sizes) >= 3

    def test_masks_past_64_bits(self):
        rng = random.Random(65)
        cat = gc.ContentCatalog(tuple(rng.uniform(0.05, 1.0) for _ in range(70)))
        self.check_mask_map(gc.from_intervals([(0, 6), (1, 10)]), cat, 1)

    def test_pairs_that_share_contents(self):
        # K = 3: most pairs of columns share one or two contents, and three
        # nested stations add a segment whose unions share them too.
        cat = gc.ContentCatalog((0.5, 0.2, 0.9, 0.4, 0.3, 0.7, 0.1))
        self.check_mask_map(gc.from_intervals([(0, 6), (1, 10)]), cat, 3)
        top = gc.from_intervals([(0, 10), (1, 9), (2, 8)])
        self.check_mask_map(top, gc.ContentCatalog(cat.intensities[:5]), 3)

    def test_pair_table_of_many_columns(self):
        # 300 columns: the pair table is built in several blocks.
        cat = gc.ContentCatalog(tuple(0.1 / i for i in range(1, 301)))
        self.check_mask_map(gc.from_intervals([(0, 6), (1, 10)]), cat, 1)

    def test_union_rate_is_a_left_fold(self):
        # Added left to right, 1.0 + 1e-16 rounds back to 1.0 twice; sum()
        # gives 1.0000000000000002 from Python 3.12 on.
        cat = gc.ContentCatalog((1.0, 1e-16, 1e-16))
        assert UnionRates(cat)[0b111] == 1.0
        top = gc.from_intervals([(0, 1), (0, 1)])
        assert top.segment_areas == {frozenset({1, 2}): 1.0}
        B = gc.Placement.from_columns(3, [(1, 2), (2, 3)], 2)
        assert gc.hit_rate(top, cat, B) == 1.0
        cands, rates = state_rates(top, cat, 2)
        assert rates[cands.index((1, 2)) * len(cands) + cands.index((2, 3))] == 1.0

    def test_random_segment_sets(self):
        rng = random.Random(64)
        for _ in range(60):
            self.check_mask_map(*random_instance(rng, max_n=4))

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_leaves_rates_unchanged(self, block, monkeypatch):
        monkeypatch.setattr(gc.gibbs, "SCAN_BLOCK", block)
        self.check_mask_map(*three_stations(6), 2)
        top = gc.from_intervals([(0, 10), (1, 9), (2, 8), (3, 7)])
        self.check_mask_map(top, gc.ContentCatalog((0.5, 0.2, 0.9, 0.4, 0.3)), 2)

    @pytest.mark.parametrize(
        "intervals",
        [[(0, 2), (1, 3), (2, 4), (3, 5)], [(0, 10), (1, 9), (2, 8), (3, 7)]],
        ids=["chained", "nested"],
    )
    def test_scan_peak_memory(self, intervals):
        # 28**4 states: the scan holds its 8-byte rates and at most one block.
        top = gc.from_intervals(intervals)
        cat = gc.ContentCatalog(tuple(0.1 / i for i in range(1, 9)))
        tracemalloc.start()
        try:
            rates = state_rates(top, cat, 2)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rates) == 28**4
        assert peak <= 16 * len(rates)


def rowwise_transition_matrix(top, cat, k, beta):
    """The transition matrix built row by row, one conditional law per
    (state, station)."""
    states = list(itertools.product(state_masks(cat.m_contents, top.n_bs, k)[0], repeat=top.n_bs))
    index = {key: i for i, key in enumerate(states)}
    n = top.n_bs
    P = np.zeros((len(states), len(states)))
    for row, key in enumerate(states):
        B = gc.Placement.from_columns(cat.m_contents, key, k)
        for j in range(1, n + 1):
            cands, probs = gc.conditional_distribution(top, cat, B, j, beta)
            for c, p in zip(cands, probs):
                P[row, index[key[:j - 1] + (c,) + key[j:]]] += p / n
    return states, P


class TestTransitionMatrix:
    # The kernels come from the state scan's h, the rowwise build from local
    # energies; the two agree up to rounding.
    @pytest.mark.parametrize("beta", [0.0, 2.0, 50.0])
    def test_equals_rowwise_build(self, beta, line2_topology, line2_catalog):
        for top, cat, k in ((line2_topology, line2_catalog, 1), (*three_stations(4), 2)):
            states, P = transition_matrix(top, cat, k, beta)
            ref_states, ref = rowwise_transition_matrix(top, cat, k, beta)
            assert states == ref_states
            assert np.abs(P - ref).max() <= 1e-12

    def test_batched_kernels_equal_rowwise_build(self, line2_topology, line2_catalog):
        betas = [0.0, 2.0, 50.0]
        rng = random.Random(23)
        instances = [(line2_topology, line2_catalog, 1), (*three_stations(4), 2)]
        instances += [random_instance(rng) for _ in range(20)]
        for top, cat, k in instances:
            kernels = transition_matrices(state_rates(top, cat, k)[1], top.n_bs, betas)
            assert kernels.shape[0] == len(betas)
            for beta, P in zip(betas, kernels):
                _, ref = rowwise_transition_matrix(top, cat, k, beta)
                assert np.abs(P - ref).max() <= 1e-12

    def test_rows_are_distributions(self, line2_topology, line2_catalog):
        _, P = transition_matrix(line2_topology, line2_catalog, 1, 2.0)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert (P >= 0).all()

    def test_detailed_balance(self):
        rng = random.Random(21)
        for _ in range(8):
            top, cat, k = random_instance(rng)
            beta = rng.uniform(0, 4)
            states, P = transition_matrix(top, cat, k, beta)
            dist = gc.stationary_distribution(top, cat, k, beta)
            pi = np.array([dist[s] for s in states])
            F = pi[:, None] * P
            assert np.allclose(F, F.T, atol=1e-13)

    def test_stationarity(self, line2_topology, line2_catalog):
        states, P = transition_matrix(line2_topology, line2_catalog, 1, 3.0)
        dist = gc.stationary_distribution(line2_topology, line2_catalog, 1, 3.0)
        pi = np.array([dist[s] for s in states])
        assert np.allclose(pi @ P, pi, atol=1e-13)

    def test_single_site_support(self, line2_topology, line2_catalog):
        # One update can change at most one column, so transitions between
        # configurations differing in both columns have zero probability.
        states, P = transition_matrix(line2_topology, line2_catalog, 1, 1.0)
        for a, ka in enumerate(states):
            for b, kb in enumerate(states):
                ndiff = sum(x != y for x, y in zip(ka, kb))
                if ndiff > 1:
                    assert P[a, b] == 0.0


class TestEnumerateStates:
    # The exact tools list the states as product(cands, repeat=N).
    @staticmethod
    def states(m, n, k):
        return list(itertools.product(state_masks(m, n, k)[0], repeat=n))

    def test_count_and_order(self):
        states = self.states(3, 2, 1)
        assert len(states) == 9
        assert states[0] == ((1,), (1,))
        assert states[-1] == ((3,), (3,))

    def test_roundtrip_placement(self):
        for key in self.states(3, 2, 2):
            B = gc.Placement.from_columns(3, key, 2)
            assert B.columns() == key

    def test_capacity_gate(self):
        with pytest.raises(CapacityError):
            self.states(20, 8, 10)


class TestDobrushinBound:
    def test_frozen_value(self):
        assert gc.dobrushin_bound(1.0, 0.315, 2, 2, 1, 10) == pytest.approx(
            0.7128130540394745, abs=1e-12
        )

    def test_formula(self):
        beta, delta, n, m, k, l = 0.7, 0.2, 3, 4, 2, 5
        contraction = 1 - (math.exp(-beta * delta) / (n * math.comb(m, k))) ** n
        assert gc.dobrushin_bound(beta, delta, n, m, k, l) == pytest.approx(
            contraction**l, abs=1e-14
        )

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 5.0])
    def test_bounds_exact_coefficient(self, beta, line2_topology, line2_catalog):
        # The exact Dobrushin coefficient of one N-slot period, the largest TV
        # distance between two rows of P^N, never exceeds the bound.
        for top, cat, k in ((line2_topology, line2_catalog, 1), (*three_stations(4), 2)):
            _, P = transition_matrix(top, cat, k, beta)
            Q = np.linalg.matrix_power(P, top.n_bs)
            coefficient = 0.5 * np.abs(Q[:, None, :] - Q[None, :, :]).sum(axis=2).max()
            delta = gc.enumerate_optimal(top, cat, k).delta
            bound = gc.dobrushin_bound(beta, delta, top.n_bs, cat.m_contents, k, 1)
            assert coefficient <= bound

    def test_decreasing_in_periods(self):
        vals = [gc.dobrushin_bound(2.0, 0.315, 2, 2, 1, l) for l in (1, 5, 20, 100)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0 < v < 1 for v in vals)
