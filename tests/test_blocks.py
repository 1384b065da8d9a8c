"""The virtual chain in slot blocks (``gibbscache.blocks``): its draws equal
the streams' one-at-a-time draws, and its columns equal ``FastCore.step``'s
on every path that reads them."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gibbscache as gc
from gibbscache import engine
from gibbscache.blocks import SlotDraws, slot_betas
from gibbscache.config import EstimatorConfig
from gibbscache.engine import FastCore
from gibbscache.gibbs import GibbsParams
from conftest import random_instance


class TestSlotDraws:
    @pytest.mark.parametrize("n", [*range(1, 10), 16, 17])
    def test_stations_are_randrange(self, n):
        # Takes of 1, 7, 333, 1000 and 1024 slots end inside a refill of raw
        # outputs, and a take of 1024 needs more than one refill.
        seed = 100 + n
        draws = SlotDraws(random.Random(seed), random.Random(seed + 1000), n)
        sizes = itertools.cycle([1, 7, 1024, 333, 1000])
        stations, uniforms, left_over = [], [], 0
        while len(stations) < 10_000:
            js, us = draws.take(next(sizes))
            stations += js.tolist()
            uniforms += us.tolist()
            left_over = max(left_over, len(draws._js))
        assert left_over > 0
        ref, ref_u = random.Random(seed), random.Random(seed + 1000)
        assert stations == [ref.randrange(n) for _ in stations]
        assert uniforms == [ref_u.random() for _ in uniforms]

    @pytest.mark.parametrize("mode", ["fixed", "annealed"])
    def test_betas_are_beta_at(self, mode):
        params = GibbsParams(mode=mode, beta=3.0, beta0=0.7)
        for n_bs, k0, k1 in [(1, 0, 5), (2, 3, 1030), (3, 1, 2), (7, 40, 41), (3, 0, 3)]:
            expect = [params.beta_at(t, n_bs) for t in range(k0, k1)]
            assert slot_betas(params.beta_at, k0, k1, n_bs).tolist() == expect


class TestGate:
    def test_switch_point(self, line2_topology, line2_catalog):
        # line2 has 2 contexts per station; the middle station of 3 in a
        # line at M = 4, K = 2 has 36, and hex7's M = 8, K = 2 has 28 columns.
        assert FastCore(line2_topology, line2_catalog, 1).blocks
        middle = gc.from_intervals([(0, 6), (1, 10), (8, 15)])
        assert FastCore(middle, gc.ContentCatalog((0.1, 0.05)), 1).blocks
        assert not FastCore(middle, gc.ContentCatalog((0.1, 0.05, 0.03, 0.02)), 2).blocks
        assert 8 <= engine.BLOCK_CONTEXTS < 36

    def test_station_without_neighbours(self):
        # One station: a single context, its column one of C(M, K).
        top = gc.from_intervals([(0, 1)])
        core = FastCore(top, gc.ContentCatalog((0.3, 0.2, 0.1, 0.05)), 2)
        assert core.blocks
        keys = core.block(np.zeros(5, np.intp), np.full(5, 2.0), np.linspace(0, 0.99, 5))
        step = FastCore(top, gc.ContentCatalog((0.3, 0.2, 0.1, 0.05)), 2)
        assert keys == [(step.step(0, 2.0, u),) for u in np.linspace(0, 0.99, 5).tolist()]

    @pytest.mark.parametrize("beta", [-1.0, math.inf, math.nan])
    def test_block_rejects_bad_beta(self, beta, line2_topology, line2_catalog):
        core = FastCore(line2_topology, line2_catalog, 1)
        with pytest.raises(ValueError, match="beta"):
            core.block(np.zeros(3, np.intp), np.array([1.0, beta, 1.0]), np.full(3, 0.5))


@pytest.mark.parametrize("scope", ["shared", "local"])
def test_recorded_cells(scope):
    # The shared table counts every request, a station's local table the
    # requests it served by exploration.
    rng = random.Random(8)
    top, cat, k = random_instance(rng, max_n=3, max_m=4)
    core = FastCore(top, cat, k, EstimatorConfig(scope=scope), eta=0.3)
    q = [rng.randrange(len(core.seg_bs)) for _ in range(500)]
    arrivals = [(s, rng.randrange(core.m), rng.choice(core.seg_bs[s]) - 1, rng.random() < 0.5) for s in q]
    expect = [[[0] * core.m for _ in core.seg_bs] for _ in range(top.n_bs if scope == "local" else 1)]
    for s, i0, bs0, explored in arrivals:
        if scope == "shared" or explored:
            expect[bs0 if scope == "local" else 0][s][i0] += 1
    counted = core.arrivals(*map(np.array, zip(*arrivals)))
    core.record_arrivals(counted, 123)
    core.record_arrivals(counted, 500)
    assert core.est_counts.tolist() == expect


@st.composite
def _small_chains(draw):
    """Interval topologies of up to 3 stations, M <= 4, K <= 2."""
    n = draw(st.integers(1, 3))
    intervals = []
    for _ in range(n):
        lo = draw(st.integers(0, 8))
        intervals.append([lo, lo + draw(st.integers(1, 6))])
    m = draw(st.integers(2, 4))
    return {
        "topology": {"intervals": intervals},
        "catalog": {"intensities": draw(st.lists(st.floats(0.01, 1.0), min_size=m, max_size=m))},
        "cache": {"capacity": draw(st.integers(1, min(2, m - 1)))},
        "schedule": {"kind": "linear", "t1": 2.0},
        "traffic": {"eta": 0.05},
        "sim": {"horizon": 60, "slot_spacing": draw(st.sampled_from([0.25, 1.0, 3.0]))},
    }


ANNEALED = GibbsParams(mode="annealed", beta0=1.0)


class TestBlocksEqualSteps:
    """With the gate forced to 0 and to infinity, the two paths give equal
    results; at infinity every instance takes the blocks, 36 contexts too."""

    @settings(max_examples=40, deadline=None)
    @given(
        _small_chains(),
        st.sampled_from([GibbsParams(beta=0.0), GibbsParams(beta=7.5), ANNEALED]),
        st.sampled_from([None, "shared", "local"]),
        st.integers(0, 2**16),
    )
    @example(  # N = 3: two-bit draws of randrange(3) reject the value 3
        {
            "topology": {"intervals": [[0, 6], [1, 10], [8, 15]]},
            "catalog": {"intensities": [0.1, 0.05, 0.03, 0.02]},
            "cache": {"capacity": 2},
            "schedule": {"kind": "linear", "t1": 2.0},
            "traffic": {"eta": 0.05},
            "sim": {"horizon": 60, "slot_spacing": 0.25},
        },
        ANNEALED,
        "local",
        5,
    )
    def test_run_and_run_chain(self, data, gibbs, scope, seed):
        # Annealing at beta0 = 1 fails the config's admissibility check on
        # most of these instances, so the schedule is set on the built config.
        cfg = dataclasses.replace(gc.build_config(data), gibbs=gibbs)
        if scope is not None:
            cfg = dataclasses.replace(cfg, eta=0.2, estimator=EstimatorConfig(scope=scope))
        top, cat, k = cfg.topology, cfg.catalog, cfg.cache_size
        results = []
        with pytest.MonkeyPatch.context() as mp:
            for gate in (math.inf, 0):
                mp.setattr(engine, "BLOCK_CONTEXTS", gate)
                assert FastCore(top, cat, k).blocks == (gate > 0)
                chain = gc.run_chain(top, cat, k, cfg.gibbs, 300, seed, record_at={1, 150, 300})
                results.append((gc.run(cfg, seed=seed), chain))
        assert results[0] == results[1]
