"""The incremental sampler core must agree exactly with the readable
reference formulas it replaces."""

import math
import random

import pytest

import gibbscache as gc
from gibbscache.config import EstimatorConfig
from gibbscache.engine import FastCore
from gibbscache.gibbs import candidate_columns
from gibbscache.traffic import RateEstimates, estimated_local_energy
from conftest import random_instance


def _random_key(rng, core):
    cands = candidate_columns(core.m, core.k)
    return tuple(cands[rng.randrange(len(cands))] for _ in range(core.n_bs))


def _column_gain(g, column):
    return sum(g[i - 1] for i in column)


def _assert_energy_is_gain_plus_constant(energy, g, m, k):
    # The local energy of every candidate column c is sum(g over c) plus one
    # constant, the part that does not depend on c.
    rest = [energy(c) - _column_gain(g, c) for c in candidate_columns(m, k)]
    assert max(rest) - min(rest) <= 1e-12


def _inverse_cdf(cands, probs, u):
    acc = 0.0
    for c, p in zip(cands, probs):
        acc += p
        if u < acc:
            return c
    return cands[-1]


class TestExactAgreement:
    def test_candidate_energies_match_reference(self):
        rng = random.Random(51)
        for _ in range(25):
            top, cat, k = random_instance(rng)
            core = FastCore(top, cat, k)
            key = _random_key(rng, core)
            core.set_columns(key)
            B = gc.Placement.from_columns(cat.m_contents, key, k)
            for j0 in range(top.n_bs):
                _assert_energy_is_gain_plus_constant(
                    lambda c: gc.local_energy(top, cat, B.with_column(j0 + 1, c), j0 + 1),
                    core.gains(j0), cat.m_contents, k,
                )

    def test_cond_probs_match_reference(self):
        rng = random.Random(52)
        for _ in range(25):
            top, cat, k = random_instance(rng)
            core = FastCore(top, cat, k)
            key = _random_key(rng, core)
            core.set_columns(key)
            B = gc.Placement.from_columns(cat.m_contents, key, k)
            beta = rng.uniform(0, 20)
            for j0 in range(top.n_bs):
                g = core.gains(j0)
                cands, ref = gc.conditional_distribution(top, cat, B, j0 + 1, beta)
                exponents = [beta * _column_gain(g, c) for c in cands]
                weights = [math.exp(x - max(exponents)) for x in exponents]
                for w, b in zip(weights, ref):
                    assert w / sum(weights) == pytest.approx(b, abs=1e-12)

    def test_step_matches_inverse_cdf(self):
        rng = random.Random(53)
        for _ in range(25):
            top, cat, k = random_instance(rng)
            core = FastCore(top, cat, k)
            key = _random_key(rng, core)
            core.set_columns(key)
            B = gc.Placement.from_columns(cat.m_contents, key, k)
            j0 = rng.randrange(top.n_bs)
            beta = rng.uniform(0, 10)
            u = rng.random()
            cands, probs = gc.conditional_distribution(top, cat, B, j0 + 1, beta)
            expect = _inverse_cdf(cands, probs, u)
            assert core.step(j0, beta, u) == expect
            assert core.columns() == key[:j0] + (expect,) + key[j0 + 1:]

    def test_step_matches_inverse_cdf_widely(self):
        # From uniform (beta = 0) to greedy (beta = 1e4) the log-space
        # sampler raises no arithmetic error and picks the reference column.
        rng = random.Random(58)
        for _ in range(100):
            top, cat, k = random_instance(rng, max_m=10, max_k=4)
            core = FastCore(top, cat, k)
            core.set_columns(_random_key(rng, core))
            for _ in range(10):
                j0 = rng.randrange(top.n_bs)
                beta = rng.choice((0.0, rng.uniform(0, 30), 500.0, 1e4))
                u = rng.random()
                B = gc.Placement.from_columns(cat.m_contents, core.columns(), k)
                cands, probs = gc.conditional_distribution(top, cat, B, j0 + 1, beta)
                assert core.step(j0, beta, u) == _inverse_cdf(cands, probs, u)

    def test_masks_stay_consistent(self):
        rng = random.Random(54)
        top, cat, k = random_instance(rng, max_n=3, max_m=4, max_k=2)
        core = FastCore(top, cat, k)
        seen = set()
        for _ in range(300):
            core.step(rng.randrange(top.n_bs), rng.uniform(0, 5), rng.random())
            masks = [sum(1 << (i - 1) for i in col) for col in core.columns()]
            assert core.masks == masks
            seen.add(core.columns())
        assert len(seen) > 1
        # A rejected placement leaves the masks as they were.
        with pytest.raises(ValueError):
            core.set_columns([range(1, k + 2)] * top.n_bs)
        assert core.masks == masks


class TestEstimateMode:
    def test_theta_matches_reference_estimator(self, line2_topology, line2_catalog):
        core = FastCore(line2_topology, line2_catalog, 1, EstimatorConfig(c0=2.0, t0=3.0))
        ref = RateEstimates(c0=2.0, t0=3.0)
        rng = random.Random(55)
        tau = 0.0
        seg_index = {frozenset(s): q for q, s in enumerate(core.seg_bs)}
        for _ in range(500):
            req = gc.next_request(rng, line2_topology, line2_catalog, tau)
            tau = req.time
            core.record_arrival(seg_index[req.segment], req.content - 1, 0, False)
            ref.observe(req, tau)
        for q, s in enumerate(core.seg_bs):
            for i in range(2):
                assert core.theta(q, i, tau) == pytest.approx(
                    ref.theta(i + 1, frozenset(s)), abs=1e-12
                )

    def test_estimated_energies_match_reference(self, line2_topology, line2_catalog):
        core = FastCore(line2_topology, line2_catalog, 1, EstimatorConfig())
        ref = RateEstimates()
        rng = random.Random(56)
        tau = 0.0
        seg_index = {frozenset(s): q for q, s in enumerate(core.seg_bs)}
        for _ in range(300):
            req = gc.next_request(rng, line2_topology, line2_catalog, tau)
            tau = req.time
            core.record_arrival(seg_index[req.segment], req.content - 1, 0, False)
            ref.observe(req, tau)
        for cols in (((1,), (1,)), ((2,), (1,))):
            core.set_columns(cols)
            B = gc.Placement.from_columns(2, cols, 1)
            for j0 in range(2):
                _assert_energy_is_gain_plus_constant(
                    lambda c: estimated_local_energy(
                        line2_topology, ref, B.with_column(j0 + 1, c), j0 + 1
                    ),
                    core.gains(j0, now=tau), 2, 1,
                )

    def test_local_scope_scaling(self, line2_topology, line2_catalog):
        eta = 0.25
        core = FastCore(line2_topology, line2_catalog, 1, EstimatorConfig(scope="local"), eta)
        # Shared segment {1, 2} has |s| = 2, so counts are scaled by 2/eta.
        q = next(i for i, s in enumerate(core.seg_bs) if s == [1, 2])
        core.record_arrival(q, 0, 0, True)
        # A local table counts only the requests its station explored.
        core.record_arrival(q, 0, 1, False)
        now = 10.0
        assert core.theta(q, 0, now, table=0) == pytest.approx(
            (1 * 2 / eta + 1.0) / (now + 1.0)
        )
        # Station 2's table saw nothing.
        assert core.theta(q, 0, now, table=1) == pytest.approx(1.0 / (now + 1.0))

    def test_local_scope_energy_reads_own_table(self, line2_topology, line2_catalog):
        core = FastCore(line2_topology, line2_catalog, 1, EstimatorConfig(scope="local"), 0.25)
        rng = random.Random(57)
        for _ in range(200):
            q = rng.randrange(len(core.seg_bs))
            core.record_arrival(q, rng.randrange(2), rng.choice(core.seg_bs[q]) - 1, True)
        core.set_columns(((1,), (2,)))
        q_of = {tuple(s): q for q, s in enumerate(core.seg_bs)}
        now = 50.0
        for j0, own, other in ((0, 0, 1), (1, 1, 0)):
            def theta(s, i):
                return core.theta(q_of[s], i, now, table=j0)

            alone = (j0 + 1,)
            g = core.gains(j0, now)
            # The other station's content gains nothing in the shared segment.
            # The sampler's rates are the reported ones, bit for bit.
            assert g[own] == theta(alone, own) + theta((1, 2), own)
            assert g[other] == theta(alone, other)

    def test_local_scope_requires_eta(self, line2_topology, line2_catalog):
        with pytest.raises(ValueError):
            FastCore(line2_topology, line2_catalog, 1, EstimatorConfig(scope="local"), 0.0)


class TestValidation:
    def test_bad_column(self, line2_topology, line2_catalog):
        core = FastCore(line2_topology, line2_catalog, 1)
        with pytest.raises(ValueError):
            core.set_columns([(1, 2), (1,)])
        with pytest.raises(ValueError):
            core.set_columns([(1,)])
        with pytest.raises(ValueError):
            core.set_columns([(3,), (1,)])
        with pytest.raises(ValueError):
            FastCore(line2_topology, line2_catalog, 2).set_columns([(1, 1), (1, 2)])
        # A rejected placement leaves the state as it was.
        assert core.columns() == ((1,), (1,))

    @pytest.mark.parametrize("beta", [-1.0, math.inf, math.nan])
    def test_step_rejects_bad_beta(self, beta, line2_topology, line2_catalog):
        core = FastCore(line2_topology, line2_catalog, 1)
        with pytest.raises(ValueError, match=f"got {beta!r}"):
            core.step(0, beta, 0.5)
        assert core.columns() == ((1,), (1,))
