"""The incremental sampler core must agree exactly with the readable
reference formulas it replaces."""

import math
import random

import pytest

import gibbscache as gc
from gibbscache.engine import FastCore
from gibbscache.gibbs import candidate_columns
from gibbscache.traffic import RateEstimates, estimated_local_energy
from conftest import random_instance


def _random_key(rng, core):
    cands = candidate_columns(core.m, core.k)
    return tuple(cands[rng.randrange(len(cands))] for _ in range(core.n_bs))


def _split_energy(split, column):
    hit, g = split
    return hit + sum(g[i - 1] for i in column)


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
                split = core.energy_split(j0)
                for c in candidate_columns(cat.m_contents, k):
                    ref = gc.local_energy(top, cat, B.with_column(j0 + 1, c), j0 + 1)
                    assert _split_energy(split, c) == pytest.approx(ref, abs=1e-12)

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
                split = core.energy_split(j0)
                cands, ref = gc.conditional_distribution(top, cat, B, j0 + 1, beta)
                exponents = [beta * _split_energy(split, c) for c in cands]
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

    def test_incremental_counts_stay_consistent(self):
        rng = random.Random(54)
        top, cat, k = random_instance(rng, max_n=3, max_m=4, max_k=2)
        core = FastCore(top, cat, k)
        for _ in range(300):
            core.step(rng.randrange(top.n_bs), rng.uniform(0, 5), rng.random())
        snapshot = [c[:] for c in core.counts]
        core._rebuild_counts()
        assert core.counts == snapshot


class TestEstimateMode:
    def test_theta_matches_reference_estimator(self, line2_topology, line2_catalog):
        core = FastCore(
            line2_topology, line2_catalog, 1, rate_source="estimate",
            est_c0=2.0, est_t0=3.0,
        )
        ref = RateEstimates(c0=2.0, t0=3.0)
        rng = random.Random(55)
        tau = 0.0
        seg_index = {frozenset(s): q for q, s in enumerate(core.seg_bs)}
        for _ in range(500):
            req = gc.next_request(rng, line2_topology, line2_catalog, tau)
            tau = req.time
            core.record_arrival(seg_index[req.segment], req.content - 1)
            ref.observe(req, tau)
        for q, s in enumerate(core.seg_bs):
            for i in range(2):
                assert core.theta(q, i, tau) == pytest.approx(
                    ref.theta(i + 1, frozenset(s)), abs=1e-12
                )

    def test_estimated_energies_match_reference(self, line2_topology, line2_catalog):
        core = FastCore(line2_topology, line2_catalog, 1, rate_source="estimate")
        ref = RateEstimates()
        rng = random.Random(56)
        tau = 0.0
        seg_index = {frozenset(s): q for q, s in enumerate(core.seg_bs)}
        for _ in range(300):
            req = gc.next_request(rng, line2_topology, line2_catalog, tau)
            tau = req.time
            core.record_arrival(seg_index[req.segment], req.content - 1)
            ref.observe(req, tau)
        for cols in (((1,), (1,)), ((2,), (1,))):
            core.set_columns(cols)
            B = gc.Placement.from_columns(2, cols, 1)
            for j0 in range(2):
                split = core.energy_split(j0, now=tau)
                for c in candidate_columns(2, 1):
                    expect = estimated_local_energy(
                        line2_topology, ref, B.with_column(j0 + 1, c), j0 + 1
                    )
                    assert _split_energy(split, c) == pytest.approx(expect, abs=1e-12)

    def test_local_scope_scaling(self, line2_topology, line2_catalog):
        eta = 0.25
        core = FastCore(
            line2_topology, line2_catalog, 1,
            rate_source="estimate", est_scope="local", eta=eta,
        )
        # Shared segment {1, 2} has |s| = 2, so counts are scaled by 2/eta.
        q = next(i for i, s in enumerate(core.seg_bs) if s == [1, 2])
        core.record_arrival(q, 0, bs0=0)
        now = 10.0
        assert core.theta(q, 0, now, table=0) == pytest.approx(
            (1 * 2 / eta + 1.0) / (now + 1.0)
        )
        # Station 2's table saw nothing.
        assert core.theta(q, 0, now, table=1) == pytest.approx(1.0 / (now + 1.0))

    def test_local_scope_energy_reads_own_table(self, line2_topology, line2_catalog):
        core = FastCore(
            line2_topology, line2_catalog, 1,
            rate_source="estimate", est_scope="local", eta=0.25,
        )
        rng = random.Random(57)
        for _ in range(200):
            q = rng.randrange(len(core.seg_bs))
            core.record_arrival(q, rng.randrange(2), bs0=rng.choice(core.seg_bs[q]) - 1)
        core.set_columns(((1,), (2,)))
        q_of = {tuple(s): q for q, s in enumerate(core.seg_bs)}
        now = 50.0
        for j0, own, other in ((0, 0, 1), (1, 1, 0)):
            def theta(s, i):
                return core.theta(q_of[s], i, now, table=j0)

            alone = (j0 + 1,)
            hit, g = core.energy_split(j0, now)
            # Only the other station's content in the shared segment is a hit.
            assert hit == pytest.approx(theta((1, 2), other), rel=1e-12)
            assert g[own] == pytest.approx(theta(alone, own) + theta((1, 2), own), rel=1e-12)
            assert g[other] == pytest.approx(theta(alone, other), rel=1e-12)

    def test_local_scope_requires_eta(self, line2_topology, line2_catalog):
        with pytest.raises(ValueError):
            FastCore(
                line2_topology, line2_catalog, 1,
                rate_source="estimate", est_scope="local", eta=0.0,
            )


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

    def test_bad_modes(self, line2_topology, line2_catalog):
        with pytest.raises(ValueError):
            FastCore(line2_topology, line2_catalog, 1, rate_source="psychic")
        with pytest.raises(ValueError):
            FastCore(line2_topology, line2_catalog, 1, est_scope="global")
