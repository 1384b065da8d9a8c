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
import reference_step
from gibbscache import engine
from gibbscache.blocks import Blocks, SlotDraws, _array_table, _column_table, _walk, slot_betas
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
            assert slot_betas(params, k0, k1, n_bs).tolist() == expect

    @pytest.mark.parametrize("n_bs", [2, 3])
    @pytest.mark.parametrize(
        "params",
        [GibbsParams(mode="annealed", beta0=b) for b in (1.0, 0.7, 1.3072)] + [GibbsParams(beta=3.0)],
    )
    def test_betas_over_a_million_slots(self, params, n_bs):
        # In runs of 1,024 slots from slot 5, not aligned to a period, the
        # betas equal beta0 * ln(1 + t // N) per slot, in Python floats.
        n = 10**6
        got = np.concatenate(
            [slot_betas(params, k0, min(k0 + 1024, n), n_bs) for k0 in range(5, n, 1024)]
        )
        if params.mode == "fixed":
            expect = np.full(n - 5, params.beta)
        else:
            per_period = [params.beta0 * math.log(1 + p) for p in range(n // n_bs + 1)]
            expect = np.array(per_period)[np.arange(5, n) // n_bs]
        assert got.tobytes() == expect.tobytes()


def _ranks(a: np.ndarray, k: int, u: np.ndarray) -> list[int]:
    """Each row's ``engine._lex_sample`` from the Python-float table of
    ``tests/reference_step.py``, as its rank among the K-subsets."""
    m = a.shape[1]
    rank = {c: r for r, c in enumerate(itertools.combinations(range(1, m + 1), k))}
    out = []
    for row, x in zip(a.tolist(), u.tolist()):
        out.append(rank[engine._lex_sample(row, k, x, reference_step.suffix_table(row, k))])
    return out


@st.composite
def _short_rows(draw):
    """Up to 4,096 rows of M <= 8 log-weights ``beta * g``, g drawn from a
    few values so that ties are common, with K and a uniform per row."""
    m = draw(st.integers(2, 8))
    k = draw(st.integers(1, m - 1))
    rows = draw(st.integers(1, 4096) | st.sampled_from([1, 2, 4096]))
    beta = draw(st.sampled_from([0.0, 1e-3, 1.0, 500.0, 1e4]) | st.floats(0, 1e4))
    pool = np.array(draw(st.lists(st.floats(0, 2), min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = np.where(rng.random((rows, m)) < 0.8, pool[rng.integers(len(pool), size=(rows, m))],
                 rng.random((rows, m)) * 2)
    u = rng.random(rows)
    u[rng.random(rows) < 0.05] = 1 - 2**-53  # the largest uniform random() returns
    return beta * g, k, u


class TestBlockWalk:
    """The block path's suffix table and walk equal ``_array_table`` and the
    Python reference, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(_short_rows())
    def test_column_table_and_walk(self, case):
        a, k, u = case
        columns = _column_table(np.ascontiguousarray(a.T), k)
        for level, rows in zip(columns, _array_table(a, k)):
            assert level.T.tobytes() == rows.tobytes()
        # The Python reference, on up to 64 of the rows.
        few = slice(0, None, max(1, len(a) // 64))
        for level, rows in zip(columns, zip(*(reference_step.suffix_table(r, k) for r in a[few].tolist()))):
            assert level[:, few].T.tobytes() == np.array(rows).tobytes()
        assert _walk(np.ascontiguousarray(a.T), k, u).tolist() == _ranks(a, k, u)

    @pytest.mark.parametrize("m, k", [(3, 2), (5, 2), (6, 3), (8, 4)])
    def test_rows_finish_at_different_contents(self, m, k):
        # One greedy row per K-subset, which it draws, so rows finish at every
        # content from K - 1 to M - 1, some with the rest forced; then rows at
        # beta = 0, some at the largest uniform.
        subsets = list(itertools.combinations(range(m), k))
        greedy = np.array([[1e4 if i in sub else 0.0 for i in range(m)] for sub in subsets])
        a = np.concatenate([greedy, np.zeros((len(subsets), m))])
        u = np.concatenate([np.linspace(0, 1, len(subsets), endpoint=False)] * 2)
        u[-1] = 1 - 2**-53
        ranks = _walk(np.ascontiguousarray(a.T), k, u).tolist()
        assert ranks[: len(subsets)] == list(range(len(subsets)))
        assert ranks == _ranks(a, k, u)


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


@pytest.mark.parametrize("scope", [None, "shared", "local"])
def test_block_gains_equal_array_gains(scope):
    # Every (slot, context) gain column of a block equals FastCore._array_gains
    # in that context, with the counts recorded up to the slot, bit for bit;
    # stations lie in up to 4 segments, so the order of the additions shows.
    rng = random.Random(12)
    est = None if scope is None else EstimatorConfig(scope=scope, c0=0.3, t0=2.0)
    for _ in range(8):
        top, cat, k = random_instance(rng, max_n=3, max_m=4)
        core = FastCore(top, cat, k, est, eta=0.3)
        plan = Blocks(core)
        n_slots = 16
        stations = np.array([rng.randrange(top.n_bs) for _ in range(n_slots)])
        now = np.sort([rng.uniform(0, 50) for _ in range(n_slots)])
        if est is None:
            g = np.take(plan.gains, stations, -1)
        else:
            q = [rng.randrange(len(core.seg_bs)) for _ in range(300)]
            draws = [np.array(q), np.array([rng.randrange(core.m) for _ in q]),
                     np.array([rng.choice(core.seg_bs[s]) - 1 for s in q]), np.array([rng.random() < 0.5 for _ in q])]
            arrivals = core.arrivals(*draws)
            core.record_arrivals(arrivals, 40)
            fed = np.sort(rng.sample(range(40, 301), n_slots))
            g = plan._learned_gains(core, stations, now, arrivals, fed)
        ref = FastCore(top, cat, k, est, eta=0.3)
        for t, j in enumerate(stations.tolist()):
            if est is not None:
                ref.est_counts[:] = 0
                ref.record_arrivals(ref.arrivals(*draws), fed[t])
            for x in range(plan.c ** len(plan.near_w[j])):
                cols = list(ref.columns())
                for o, w in plan.near_w[j]:
                    cols[o] = plan.columns[x // w % plan.c]
                ref.set_columns(cols)
                assert g[:, x, t].tobytes() == ref._array_gains(j, now[t]).tobytes()


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
