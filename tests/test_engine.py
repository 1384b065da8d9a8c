"""The incremental sampler core must agree exactly with the readable
reference formulas it replaces."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gibbscache as gc
from gibbscache import engine
from gibbscache.config import EstimatorConfig
from gibbscache.engine import FastCore, _array_table, _lex_sample, _suffix_table
from gibbscache.gibbs import state_masks
from gibbscache.traffic import RateEstimates, estimated_local_energy
from conftest import random_instance


def _random_key(rng, core):
    cands = state_masks(core.m, 1, core.k)[0]
    return tuple(cands[rng.randrange(len(cands))] for _ in range(core.n_bs))


def _column_gain(g, column):
    return sum(g[i - 1] for i in column)


def _assert_energy_is_gain_plus_constant(energy, g, m, k):
    # The local energy of every candidate column c is sum(g over c) plus one
    # constant, the part that does not depend on c.
    rest = [energy(c) - _column_gain(g, c) for c in state_masks(m, 1, k)[0]]
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

    @pytest.mark.parametrize("switch", [0, math.inf])
    def test_step_at_the_largest_uniform(self, switch, monkeypatch):
        # At u = 1 - 2**-53, which random() can return, rescaling rounds u up
        # to 1 on six equal weights; the last column is drawn, as the
        # inverse CDF's limit at 1, where dividing by 1 - p once failed.
        monkeypatch.setattr(engine, "ARRAY_STEP_MK", switch)
        core = FastCore(gc.from_intervals([(0, 6), (1, 10)]), gc.ContentCatalog((0.1,) * 6), 1)
        assert core.step(0, 0.0, 1 - 2**-53) == (6,)
        assert _lex_sample([0.0] * 10, 3, 1 - 2**-53, _suffix_table([0.0] * 10, 3)) == (8, 9, 10)

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


@st.composite
def _weights(draw):
    """Log-weights ``beta * g`` of up to 60 contents, drawn from a few
    values so that ties are common, a subset size and a uniform."""
    m = draw(st.integers(1, 60))
    beta = draw(st.sampled_from([0.0, 1e-3, 1.0, 5.0, 500.0, 1e4]) | st.floats(0, 1e4))
    pool = draw(st.lists(st.floats(0, 2), min_size=1, max_size=4))
    g = draw(st.lists(st.sampled_from(pool) | st.floats(0, 2), min_size=m, max_size=m))
    k = draw(st.integers(1, m))
    u = draw(st.floats(0, 1, exclude_max=True))
    return [beta * x for x in g], k, u


def _instance_with_eight_segments(rng):
    """Four stations and every nonempty subset of them a segment: each
    station lies in eight segments."""
    areas = {
        frozenset(j + 1 for j in range(4) if mask >> j & 1): rng.uniform(0.1, 3.0)
        for mask in range(1, 16)
    }
    m = rng.randint(4, 12)
    cat = gc.ContentCatalog(tuple(rng.uniform(0.05, 1.0) for _ in range(m)))
    return gc.from_segments(4, areas), cat, rng.randint(1, 3)


class TestArrayStep:
    """Above ARRAY_STEP_MK, ``step`` computes the gains and the suffix table
    with numpy; both must equal the Python evaluation bit for bit."""

    def test_switch_point(self):
        # line2 (M·K = 2) and hex7 (M = 8, K = 2) stay on the Python path;
        # line30 (M = 30, K = 3) takes the arrays.
        assert 16 <= engine.ARRAY_STEP_MK < 90

    @settings(max_examples=400, deadline=None)
    @given(_weights())
    def test_array_table_equals_python_table(self, case):
        a, k, u = case
        table = _suffix_table(a, k)
        arrays = _array_table(np.array(a), k)
        assert [[x.hex() for x in row] for row in arrays] == [[x.hex() for x in row] for row in table]
        assert _lex_sample(a, k, u, arrays) == _lex_sample(a, k, u, table)

    @pytest.mark.parametrize("scope", [None, "shared", "local"])
    def test_array_gains_equal_gains(self, scope, monkeypatch):
        monkeypatch.setattr(engine, "ARRAY_STEP_MK", 0)
        est = None if scope is None else EstimatorConfig(scope=scope, c0=0.3, t0=2.0)
        rng = random.Random(59)
        most_segments = widest = 0
        for trial in range(44):
            if trial >= 40:  # masks of 65 and 130 bits
                top, _, k = random_instance(rng, max_n=5)
                m = (65, 130)[trial % 2]
                cat = gc.ContentCatalog(tuple(rng.uniform(0.05, 1.0) for _ in range(m)))
            elif trial % 4:
                top, cat, k = random_instance(rng, max_n=5, max_m=12, max_k=4)
            else:
                top, cat, k = _instance_with_eight_segments(rng)
            core = FastCore(top, cat, k, est, eta=0.2)
            assert core.arrays
            if trial >= 40:  # columns drawn without listing every candidate
                core.set_columns([rng.sample(range(1, m + 1), k) for _ in range(top.n_bs)])
            else:
                core.set_columns(_random_key(rng, core))
            most_segments = max(most_segments, *map(len, core.neighbours))
            for _ in range(10):
                if est is not None:
                    for _ in range(20):
                        q = rng.randrange(len(core.seg_bs))
                        core.record_arrival(
                            q, rng.randrange(core.m), rng.choice(core.seg_bs[q]) - 1, True
                        )
                j0 = rng.randrange(top.n_bs)
                now = rng.uniform(0, 50)
                assert core._array_gains(j0, now).tolist() == core.gains(j0, now)
                core.step(j0, rng.uniform(0, 10), rng.random(), now)
                widest = max(widest, *core.masks)
        assert most_segments >= 8
        assert widest.bit_length() > 64

    def test_station_without_segments(self, monkeypatch):
        monkeypatch.setattr(engine, "ARRAY_STEP_MK", 0)
        top = gc.from_segments(2, {frozenset({1}): 1.0})
        core = FastCore(top, gc.ContentCatalog((0.3, 0.2, 0.1)), 2)
        assert core._array_gains(1).tolist() == core.gains(1) == [0.0, 0.0, 0.0]
        assert core.step(1, 5.0, 0.99) == (2, 3)

    def test_logaddexp_has_no_dispatched_loop(self):
        # The array table is bit-identical to the Python one because
        # np.logaddexp calls libm's exp and log1p one element at a time, as
        # math does.  A CPU-dispatched SIMD loop for it would round
        # differently, as np.exp's and np.log's do.
        introspect = pytest.importorskip("numpy.lib.introspect")  # numpy >= 2
        assert "logaddexp" not in introspect.opt_func_info(func_name="logaddexp")


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
