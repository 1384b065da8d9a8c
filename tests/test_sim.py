import bisect
import dataclasses
import itertools
import math
import random
from collections import Counter
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gibbscache as gc
from gibbscache.config import EstimatorConfig
from gibbscache.gibbs import GibbsParams
from gibbscache.model import mask_hit_rate
from gibbscache.realcache import most_popular_columns
from gibbscache import engine, sim
from gibbscache.sim import STREAM_NAMES, average_distributions, substreams
from conftest import random_instance
from exact_chain import ExactChain
import reference_step

PI_BETA2 = {
    ((1,), (1,)): 0.208171874738,
    ((1,), (2,)): 0.301377628857,
    ((2,), (1,)): 0.320013780632,
    ((2,), (2,)): 0.170436715774,
}


def _cfg(line2_config, **overrides):
    return dataclasses.replace(line2_config, **overrides)


@pytest.fixture
def paths(monkeypatch):
    """Slots run by each path of ``FastCore.advance``: ``block`` adds the
    slots of each block call, ``step`` counts step calls."""
    counts = Counter()
    block, step = engine.FastCore.block, engine.FastCore.step

    def counted_block(self, stations, *args):
        counts["block"] += len(stations)
        return block(self, stations, *args)

    def counted_step(self, *args):
        counts["step"] += 1
        return step(self, *args)

    monkeypatch.setattr(engine.FastCore, "block", counted_block)
    monkeypatch.setattr(engine.FastCore, "step", counted_step)
    return counts


class TestSubstreams:
    def test_names_and_determinism(self):
        a = substreams(123)
        b = substreams(123)
        assert set(a) == set(STREAM_NAMES)
        for name in STREAM_NAMES:
            assert [a[name].random() for _ in range(5)] == [
                b[name].random() for _ in range(5)
            ]

    def test_streams_differ(self):
        rngs = substreams(7)
        draws = {name: rngs[name].random() for name in STREAM_NAMES}
        assert len(set(draws.values())) == len(STREAM_NAMES)

    def test_seeds_differ(self):
        assert substreams(1)["arrivals"].random() != substreams(2)["arrivals"].random()

    @pytest.mark.parametrize("name", STREAM_NAMES)
    def test_block_generator_continues_stream(self, name):
        # sim.run draws the request streams in numpy blocks from a copy of
        # each stream's state; the doubles must be the stream's own.
        rng = substreams(5)[name]
        rng.random()  # start mid-stream
        gen = sim._generator(rng)
        drawn = np.concatenate([gen.random(1), gen.random(623), gen.random(99_376)])
        assert drawn.tolist() == [rng.random() for _ in range(100_000)]


def _uniforms_near(cum):
    """Uniforms whose keys ``u * cum[-1]`` straddle each running sum and its
    neighbours one ulp away, plus the largest below 1, whose keys round up
    to the total only when it is subnormal."""
    total = cum[-1]
    us = {1.0 - k * 2.0**-53 for k in range(1, 9)} | {0.0}
    for c in cum:
        for y in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)):
            u = y / total
            for _ in range(4):  # from four ulps below y / total to four above
                u = np.nextafter(u, 0.0)
            for _ in range(9):
                if u < 1.0:
                    us.add(float(u))
                u = np.nextafter(u, 1.0)
    return np.array(sorted(us))


def _check_marks(weights):
    cum = np.cumsum(weights)
    u = _uniforms_near(cum)
    expect = np.minimum(np.searchsorted(cum, u * cum[-1], "right"), len(cum) - 1)
    assert sim._marks(cum)(u).tolist() == expect.tolist()
    return u * cum[-1], cum


class TestMarks:
    """The guide table is the clipped right-searchsorted inverse CDF."""

    @pytest.mark.parametrize(
        "weights",
        [
            [2.5],
            [10 / i for i in range(1, 9)],  # hex7's catalog
            [1.0, 1e-9, 3.0, 1e-9, 1e-9] * 5,
            [0.1 / i for i in range(1, 60)],
            [1 / i for i in range(1, 1001)],  # Zipf, M = 1000
            [5e-324] * 3,  # subnormal: u * total rounds up to the total
        ],
        ids=["1", "8", "25", "59", "zipf1000", "subnormal"],
    )
    def test_table_sizes(self, weights):
        keys, cum = _check_marks(weights)
        # The keys closest to each running sum on either side are checked.
        for c in cum[:-1]:
            ulp = np.spacing(c)
            assert c - keys[keys <= c].max() <= 2 * ulp
            assert keys[keys > c].min() - c <= 2 * ulp

    @given(st.lists(st.floats(1e-9, 1.0), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_random_weights(self, weights):
        _check_marks(weights)


class TestDistributionHelpers:
    def test_tv_distance(self):
        p = {"a": 0.5, "b": 0.5}
        q = {"a": 0.25, "b": 0.25, "c": 0.5}
        assert gc.tv_distance(p, q) == pytest.approx(0.5)
        assert gc.tv_distance(p, p) == 0.0

    def test_tv_requires_distributions(self):
        with pytest.raises(ValueError):
            gc.tv_distance({"a": 0.4}, {"a": 1.0})

    def test_average_distributions(self):
        avg = average_distributions([{"a": 1.0}, {"b": 1.0}])
        assert avg == {"a": 0.5, "b": 0.5}


class TestLeftFolds:
    """Sums of floats are left folds, the same bits on every Python: sum()
    compensates from Python 3.12 on, where (1.0, 1e-16, 1e-16) sums to
    1.0000000000000002 but folds to 1.0."""

    def test_window_sums(self, line2_config):
        trace = gc.run(dataclasses.replace(line2_config, horizon=30.0), seed=1)
        keys = [((1,), (1,)), ((1,), (2,)), ((2,), (1,))]
        values = (1.0, 1e-16, 1e-16)
        trace = dataclasses.replace(
            trace, n_windows=3, h_integral=list(values),
            real_occ=[{key: x} for key, x in zip(keys, values)],
        )
        assert trace.time_average_hit_rate() == 1.0 / 30.0
        assert trace.real_occupancy() == dict(zip(keys, values))

    def test_tv_distance(self):
        # Differences 0.5, 0.5, 1e-16, 1e-16, in the order of the int keys.
        p = {0: 0.5, 1: 0.5, 2: 1e-16, 3: 1e-16}
        assert gc.tv_distance(p, {0: 1.0}) == 0.5


class TestRunChain:
    def test_deterministic(self, line2_topology, line2_catalog):
        params = GibbsParams(mode="fixed", beta=2.0)
        out1 = gc.run_chain(line2_topology, line2_catalog, 1, params, 500, seed=3)
        out2 = gc.run_chain(line2_topology, line2_catalog, 1, params, 500, seed=3)
        assert out1 == out2
        out3 = gc.run_chain(line2_topology, line2_catalog, 1, params, 500, seed=4)
        assert out1 != out3

    def test_occupancy_approaches_stationary(self, line2_topology, line2_catalog):
        params = GibbsParams(mode="fixed", beta=2.0)
        n = 200_000
        _, occ, _ = gc.run_chain(line2_topology, line2_catalog, 1, params, n, seed=11)
        emp = {k: v / n for k, v in occ.items()}
        assert gc.tv_distance(emp, PI_BETA2) < 0.03

    def test_record_at_and_totals(self, line2_topology, line2_catalog):
        params = GibbsParams(mode="fixed", beta=1.0)
        samples, occ, final = gc.run_chain(
            line2_topology, line2_catalog, 1, params, 100, seed=5, record_at={1, 50, 100}
        )
        assert set(samples) == {1, 50, 100}
        assert sum(occ.values()) == 100
        assert samples[100] == final

    def test_record_at_outside_the_slots(self, line2_topology, line2_catalog):
        params = GibbsParams(mode="fixed", beta=1.0)
        with pytest.raises(ValueError, match=r"entries \[0, 11\] are outside the slots 1\.\.10"):
            gc.run_chain(line2_topology, line2_catalog, 1, params, 10, seed=5, record_at={0, 5, 11})
        with pytest.raises(ValueError, match=r"\[2\.5\]"):
            gc.run_chain(line2_topology, line2_catalog, 1, params, 10, seed=5, record_at={2.5, 5})

    def test_initial_placement_honoured(self, line2_topology, line2_catalog):
        params = GibbsParams(mode="fixed", beta=0.0)
        initial = ((2,), (2,))
        samples, _, _ = gc.run_chain(
            line2_topology, line2_catalog, 1, params, 1, seed=6,
            record_at={1}, initial=initial,
        )
        # One update changes at most one station's column.
        ndiff = sum(a != b for a, b in zip(samples[1], initial))
        assert ndiff <= 1

    def test_matches_exact_law_at_fixed_slot(self, line2_topology, line2_catalog):
        # Empirical state frequency at slot 60 over many replications vs the
        # exactly evolved chain law.
        params = GibbsParams(mode="fixed", beta=2.0)
        chain = ExactChain(line2_topology, line2_catalog, 1)
        start = ((1,), (1,))
        mu = chain.evolve(chain.start_at(start), [2.0] * 60)
        reps = 3000
        counts = {}
        for r in range(reps):
            samples, _, _ = gc.run_chain(
                line2_topology, line2_catalog, 1, params, 60,
                seed=10_000 + r, record_at={60}, initial=start,
            )
            key = samples[60]
            counts[key] = counts.get(key, 0) + 1
        for idx, state in enumerate(chain.states):
            emp = counts.get(state, 0) / reps
            sigma = math.sqrt(mu[idx] * (1 - mu[idx]) / reps)
            assert abs(emp - mu[idx]) < 4 * sigma + 1e-9


class TestRealCaches:
    """The real caches' object against its masks: lookup rows rebuilt by
    ``engine._bits``, the hit rate by ``mask_hit_rate``, and occupancy that
    adds up to the time covered."""

    @staticmethod
    def check(caches, top, cat, snap):
        m, masks = cat.m_contents, caches.masks
        segs = [[b - 1 for b in bs] for bs in caches.core.seg_bs]
        unions = [reduce(or_, [masks[b] for b in seg]) for seg in segs]
        assert caches.held.tolist() == engine._bits(unions + masks, m).ravel().tolist()
        stations = engine._bits(snap, m).ravel().tolist()
        assert caches.snap_held.tolist() == [False] * (len(segs) * m) + stations
        assert caches.h == mask_hit_rate(top, cat)(masks)
        assert caches.hit_rates[caches.key] == caches.h
        assert [sum(1 << i - 1 for i in col) for col in caches.key] == masks

    @pytest.mark.parametrize("seed", range(8))
    def test_random_stores_and_refreshes(self, seed):
        rng = random.Random(seed)
        top, _, _ = random_instance(rng, max_n=4, max_m=2, max_k=1)
        m = 70 if seed % 2 else rng.randint(3, 8)  # 70: masks past bit 64
        k = rng.randint(1, min(4, m - 1))
        cat = gc.ContentCatalog(tuple(rng.uniform(0.05, 1.0) for _ in range(m)))
        core = engine.FastCore(top, cat, k)
        horizon, n_windows = 50.0, 7
        wlen = horizon / n_windows
        caches = sim._RealCaches(core, cat, horizon, n_windows)
        snap = core.masks[:]
        t, spans = 0.0, []
        for step in range(300):
            if rng.random() < 0.15:
                snap = [sum(1 << i for i in rng.sample(range(m), k)) for _ in range(top.n_bs)]
                caches.refresh(snap[:])
            else:
                # A stored content is one the snapshot lists at the station.
                j = rng.randrange(top.n_bs)
                i0 = rng.choice([i for i in range(m) if snap[j] >> i & 1])
                # Steps 100 and 200 cross three windows onto a window's edge.
                t1 = (int(t / wlen) + 3) * wlen if step in (100, 200) else t + rng.uniform(0, 0.05)
                spans.append((t1 - t, caches.h))
                t, old = t1, caches.masks[j]
                caches.store(j, i0, t)
                assert caches.masks[j] == old & snap[j] | 1 << i0
            self.check(caches, top, cat, snap)
        spans.append((horizon - t, caches.h))
        caches.occupy(horizon)
        assert caches.since == horizon
        totals = [math.fsum(window.values()) for window in caches.occ]
        assert totals == pytest.approx([wlen] * n_windows, rel=1e-12)
        assert math.fsum(caches.h_int) == pytest.approx(math.fsum(dt * x for dt, x in spans))

    def test_store_evicts_every_stale_content(self):
        top = gc.from_intervals([(0, 6), (1, 10)])
        cat = gc.ContentCatalog(tuple(0.1 / i for i in range(1, 71)))
        caches = sim._RealCaches(engine.FastCore(top, cat, 3), cat, 10.0, 2)
        snap = [sum(1 << i - 1 for i in col) for col in ((2, 66, 69), (66, 68, 70))]
        caches.refresh(snap[:])
        caches.store(1, 67, 1.0)  # drops 1, 2 and 3 at station 2
        assert caches.key == ((1, 2, 3), (68,))
        self.check(caches, top, cat, snap)
        caches.store(0, 65, 2.0)  # keeps 2
        assert caches.key == ((2, 66), (68,))
        self.check(caches, top, cat, snap)


class TestExactChain:
    def test_slot_counts_match_slot_by_slot_laws(self, line2_topology, line2_catalog):
        # Period kernels against one step per slot, over an odd slot count
        # and windows that split periods.
        chain = ExactChain(line2_topology, line2_catalog, 1)
        params = GibbsParams(mode="annealed", beta0=1.0)
        n_slots = 301
        windows = np.arange(1, n_slots + 1) * 7 // (n_slots + 1)
        mu0 = chain.start_at(((1,), (1,)))
        counts = chain.expected_slot_counts(mu0, params, windows)
        expect = np.zeros_like(counts)
        mu = mu0
        for k in range(n_slots):
            mu = chain.step(mu, params.beta_at(k, 2))
            expect[windows[k]] += mu
        assert np.abs(counts - expect).max() <= 1e-12
        assert counts.sum(axis=1) == pytest.approx(np.bincount(windows), rel=1e-12)


class _MarkStreams:
    """A run's arrival and mark substreams behind ``next_request``'s one
    ``rng``: the inter-arrival time from ``arrivals``, then the content mark
    from ``content-mark`` and the segment mark from ``segment-mark``."""

    def __init__(self, rngs):
        self.expovariate = rngs["arrivals"].expovariate
        self._marks = itertools.cycle((rngs["content-mark"].random, rngs["segment-mark"].random))

    def random(self):
        return next(self._marks)()


def _replay(cfg, trace):
    """Replay a run recorded with ``record_events`` through the request-level
    API, with the run's own substreams.

    Before each request the real state is offered the virtual configuration
    the run recorded at the latest snapshot boundary (``refresh_snapshot``);
    the request is then routed (``assign_server``) and applied
    (``on_request``).  Returns the events in the trace's format, the real
    placement each request met, and the final real placement.
    """
    rngs = substreams(trace.seed)
    marks = _MarkStreams(rngs)
    top, cat, k = cfg.topology, cfg.catalog, cfg.cache_size
    m = cat.m_contents
    start = gc.Placement.from_columns(
        m, [most_popular_columns(cat.intensities, k)] * top.n_bs, k
    )
    real = gc.RealState(placement=start, snapshot=start)
    sched = cfg.schedule
    snap_times = [t for t, _ in trace.snapshots]
    events, met = [], []
    req = gc.next_request(marks, top, cat, 0.0)
    while req.time < cfg.horizon:
        l = bisect.bisect_right(snap_times, req.time)
        virtual = gc.Placement.from_columns(m, trace.snapshots[l - 1][1], k) if l else start
        real = gc.refresh_snapshot(real, virtual, req.time, sched)
        j = gc.assign_server(req, real.placement, rngs["server-pick"], cfg.eta)
        met.append(real.placement)
        hit, real = gc.on_request(real, req, j)
        action = "hit" if hit else "miss" if real.placement == met[-1] else "store"
        events.append((req.time, req.content, tuple(sorted(req.segment)), j, action))
        req = gc.next_request(marks, top, cat, req.time)
    return events, met, real.placement


HEX7_CENTERS = [[0.0, 0.0]] + [
    [1.6 * math.cos(math.pi / 3 * k), 1.6 * math.sin(math.pi / 3 * k)] for k in range(6)
]


def _replay_config(name, line2_config):
    """About 3,000 requests per run, with events and slots recorded."""
    if name == "hex7":
        # Seven unit discs (up to three overlap), M = 8, K = 2.  At grid step
        # 0.04 the running-sum total rate differs from the fsum one in the
        # last bit, so the arrival times also pin next_request's totals.
        return gc.build_config(
            {
                "topology": {
                    "discs": {"centers": HEX7_CENTERS, "radii": [1.0] * 7, "grid_step": 0.04}
                },
                "catalog": {"intensities": [10 / i for i in range(1, 9)]},
                "cache": {"capacity": 2},
                "gibbs": {"mode": "fixed", "beta": 0.1},
                "schedule": {"kind": "linear", "t1": 0.5},
                "traffic": {"eta": 0.01},
                "sim": {
                    "horizon": 6.0,
                    "slot_spacing": 0.01,
                    "record_events": True,
                    "record_slots": True,
                },
            }
        )
    if name == "line3-stores":
        # Three stations, M = 6, K = 3, beta = 0 and short epochs: about one
        # store per eight requests, and columns left under-full.
        return gc.build_config(
            {
                "topology": {"intervals": [[0, 6], [1, 10], [8, 15]]},
                "catalog": {"intensities": [0.1 / i for i in range(1, 7)]},
                "cache": {"capacity": 3},
                "gibbs": {"mode": "fixed", "beta": 0},
                "schedule": {"kind": "linear", "t1": 0.05},
                "traffic": {"eta": 0.05},
                "sim": {
                    "horizon": 800.0,
                    "slot_spacing": 0.5,
                    "record_events": True,
                    "record_slots": True,
                },
            }
        )
    over = {"eta": 0.05, "estimator": EstimatorConfig()} if name == "line2-explore-learn" else {}
    return _cfg(line2_config, horizon=3000.0, record_events=True, record_slots=True, **over)


class TestReplay:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", ["line2", "line2-explore-learn", "hex7", "line3-stores"])
    def test_request_api_reproduces_run(self, name, seed, line2_config, paths):
        cfg = _replay_config(name, line2_config)
        trace = gc.run(cfg, seed=seed)
        # line2 runs its slots in blocks; hex7 (28 columns) and line3-stores
        # (20) one step each.
        assert paths == {"block" if name.startswith("line2") else "step": trace.n_slots}
        # Each snapshot is the virtual configuration after the slots that
        # fired before its boundary (snapshots go first on ties).
        init = (most_popular_columns(cfg.catalog.intensities, cfg.cache_size),) * cfg.topology.n_bs
        slot_times = [(k + 1) * cfg.slot_spacing for k in range(trace.n_slots)]
        for t, key in trace.snapshots:
            n = bisect.bisect_left(slot_times, t)
            assert key == (trace.slots[n - 1][3] if n else init)

        events, _, final_real = _replay(cfg, trace)
        assert events == trace.events
        actions = {e[4] for e in events}
        assert {"hit", "miss", "store"} <= actions
        if name == "line3-stores":
            assert sum(e[4] == "store" for e in events) >= 0.1 * len(events)
            assert any(len(col) < cfg.cache_size for key in trace.hit_rates for col in key)
        hits = [0] * trace.n_windows
        misses = [0] * trace.n_windows
        for tau, _, _, _, action in events:
            w = min(int(tau / trace.window_len), trace.n_windows - 1)
            (hits if action == "hit" else misses)[w] += 1
        assert (hits, misses) == (trace.hits, trace.misses)
        assert final_real.columns() == trace.final_real
        # Stores refresh only the storing station's segment terms; the hit
        # rates must still be mask_hit_rate's, bit for bit.
        h = mask_hit_rate(cfg.topology, cfg.catalog)
        for key, value in trace.hit_rates.items():
            assert value == h([sum(1 << i - 1 for i in col) for col in key])


class TestRunInvariance:
    """Options and block sizes that must not move a trace by one bit."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name", ["hex7", "line3-stores", "line2-explore-learn"])
    def test_logs_leave_trace_unchanged(self, name, seed, line2_config):
        cfg = _replay_config(name, line2_config)
        logged = gc.run(cfg, seed=seed)
        bare = dataclasses.replace(logged, events=None, slots=None)
        for events, slots in ((False, False), (True, False), (False, True)):
            trace = gc.run(
                dataclasses.replace(cfg, record_events=events, record_slots=slots), seed=seed
            )
            assert (trace.events is None, trace.slots is None) == (not events, not slots)
            assert dataclasses.replace(trace, events=None, slots=None) == bare

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 11, 1 << 16])
    @pytest.mark.parametrize("name", ["hex7", "line3-stores", "line2-explore-learn"])
    def test_block_size_leaves_trace_unchanged(self, name, chunk, line2_config, monkeypatch):
        # Block edges fall between arrivals, slots, snapshots and stores in
        # every combination at sizes 1 and 7.  At 2**11 the arrivals left
        # after the first block get a block of the 2**10 floor; at 2**16 one
        # block sized to the horizon holds them all.
        cfg = _replay_config(name, line2_config)
        expect = gc.run(cfg, seed=3)
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        assert gc.run(cfg, seed=3) == expect

    @pytest.mark.parametrize(
        "name",
        ["line2", "line2-explore-learn", "line2-local", "hex7", "line3-stores", "line30",
         "line30-wide"],
    )
    def test_array_step_leaves_trace_unchanged(self, name, line2_config, monkeypatch, paths):
        # FastCore.step evaluates the law with numpy; the reference step, in
        # Python floats, moves no bit.  line30-wide's masks are 100 bits
        # wide.  line2 would run in blocks, so every run here is held on the
        # step path.
        monkeypatch.setattr(engine, "BLOCK_CONTEXTS", 0)
        if name == "line2-local":
            cfg = _cfg(_replay_config("line2", line2_config), eta=0.1,
                       estimator=EstimatorConfig(scope="local"))
        elif name.startswith("line30"):
            m, k = (100, 5) if name == "line30-wide" else (30, 3)
            cfg = gc.build_config(
                {
                    "topology": {"intervals": [[3 * j, 3 * j + 5] for j in range(30)]},
                    "catalog": {"intensities": [0.1 / i for i in range(1, m + 1)]},
                    "cache": {"capacity": k},
                    "gibbs": {"mode": "fixed", "beta": 5.0},
                    "traffic": {"eta": 0.01},
                    "sim": {"horizon": 30, "record_events": True, "record_slots": True},
                }
            )
        else:
            cfg = _replay_config(name, line2_config)
        traces = [gc.run(cfg, seed=3)]

        def reference(core, *args):
            paths["reference"] += 1
            return reference_step.step(core, *args)

        monkeypatch.setattr(engine.FastCore, "step", reference)
        traces.append(gc.run(cfg, seed=3))
        assert paths == {"step": traces[0].n_slots, "reference": traces[0].n_slots}
        assert traces[0] == traces[1]
        assert len({s[3] for s in traces[0].slots}) > 1
        if name == "line30-wide":  # some sampled column holds a content past bit 64
            assert max(max(s[3][s[1] - 1]) for s in traces[0].slots) > 64

    def test_default_seed_is_the_configs(self, line2_config):
        cfg = _cfg(line2_config, horizon=500.0, seed=7)
        assert gc.run(cfg) == gc.run(cfg, seed=7)


def _block_config(name, line2_config):
    cfg = _cfg(line2_config, horizon=3000.0)
    if name == "annealed":
        return _cfg(cfg, gibbs=GibbsParams(mode="annealed", beta0=1.0))
    if name == "explore-learn":
        return _cfg(cfg, eta=0.05, estimator=EstimatorConfig())
    if name == "local":
        return _cfg(cfg, eta=0.1, estimator=EstimatorConfig(scope="local"))
    return cfg  # exact rates at fixed beta = 2


class TestBlockPath:
    """Slots run in blocks (``FastCore.block``) give the traces of one
    ``FastCore.step`` per slot, whole, at any request block size."""

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 11])
    @pytest.mark.parametrize("logs", [False, True])
    @pytest.mark.parametrize("name", ["exact", "annealed", "explore-learn", "local"])
    def test_run(self, name, logs, chunk, line2_config, monkeypatch, paths):
        cfg = _cfg(_block_config(name, line2_config), record_events=logs, record_slots=logs)
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        traces = []
        for gate, path in ((math.inf, "block"), (0, "step")):
            monkeypatch.setattr(engine, "BLOCK_CONTEXTS", gate)
            paths.clear()
            traces.append(gc.run(cfg, seed=3))
            assert paths == {path: traces[-1].n_slots}
        assert traces[0] == traces[1]
        assert len({key for window in traces[0].v_counts for key in window}) == 4

    @pytest.mark.parametrize("initial", [None, ((2,), (1,))])
    @pytest.mark.parametrize("mode", ["fixed", "annealed"])
    def test_run_chain(self, mode, initial, line2_topology, line2_catalog, monkeypatch, paths):
        # Block edges at 1024 and 2048 slots; record_at on both sides of them.
        params = GibbsParams(mode=mode, beta=2.0, beta0=1.0)
        record_at = {1, 1023, 1024, 1025, 2048, 2500}
        out = []
        for gate, path in ((math.inf, "block"), (0, "step")):
            monkeypatch.setattr(engine, "BLOCK_CONTEXTS", gate)
            paths.clear()
            out.append(gc.run_chain(line2_topology, line2_catalog, 1, params, 2500, seed=4,
                                    record_at=record_at, initial=initial))
            assert paths == {path: 2500}
        assert out[0] == out[1]
        assert set(out[0][0]) == record_at


@pytest.fixture(scope="module")
def short_cfg(line2_config):
    return dataclasses.replace(
        line2_config, horizon=5000.0, record_events=True, record_slots=True
    )


@pytest.fixture(scope="module")
def short_trace(short_cfg):
    return gc.run(short_cfg, seed=2)


class TestRunAccounting:
    def test_deterministic(self, line2_config):
        cfg = dataclasses.replace(line2_config, horizon=2000.0)
        a, b = gc.run(cfg, seed=9), gc.run(cfg, seed=9)
        assert a.final_virtual == b.final_virtual
        assert a.final_real == b.final_real
        assert a.hits == b.hits and a.misses == b.misses
        assert a.real_occ == b.real_occ
        c = gc.run(cfg, seed=10)
        assert (a.hits, a.final_virtual) != (c.hits, c.final_virtual)

    def test_slot_count(self, short_trace):
        assert short_trace.n_slots == 5000  # spacing 1.0 over horizon 5000

    def test_occupancy_covers_horizon(self, short_trace):
        total = sum(sum(w.values()) for w in short_trace.real_occ)
        assert total == pytest.approx(short_trace.horizon, rel=1e-9)
        dist = short_trace.real_occupancy()
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_every_window_fully_accounted(self, line2_config):
        # At horizon 1000 with 12 windows, 7 * (1000 / 12) / (1000 / 12)
        # rounds down to 6: real time crossing that edge must still land in
        # window 7 and every later window.
        assert line2_config.gibbs == GibbsParams(mode="fixed", beta=2.0)
        assert line2_config.n_windows == 12
        trace = gc.run(_cfg(line2_config, horizon=1000.0), seed=2)
        for w, occ in enumerate(trace.real_occ):
            assert sum(occ.values()) == pytest.approx(trace.window_len, rel=1e-9)
            rebuilt = sum(trace.hit_rates[key] * dt for key, dt in occ.items())
            assert trace.h_integral[w] == pytest.approx(rebuilt, rel=1e-9)

    def test_slot_clock_does_not_drift(self, line2_config):
        # Summing 0.1 ten thousand times passes 1000 before the last update;
        # update k must fire at exactly (k + 1) * spacing.
        cfg = _cfg(line2_config, horizon=1000.0, slot_spacing=0.1)
        trace = gc.run(cfg, seed=3)
        assert trace.n_slots == 10_000
        assert sum(sum(c.values()) for c in trace.v_counts) == 10_000

    def test_large_catalog_runs(self):
        # C(1000, 10) candidate columns: far beyond any enumeration.
        cfg = gc.build_config(
            {
                "topology": {"intervals": [[0, 6], [1, 10], [8, 14]]},
                "catalog": {"intensities": [0.01 / (i + 1) for i in range(1000)]},
                "cache": {"capacity": 10},
                "gibbs": {"mode": "fixed", "beta": 5.0},
                "sim": {"horizon": 40.0},
            }
        )
        trace = gc.run(cfg, seed=1)
        assert trace.n_slots == 40
        assert sum(sum(c.values()) for c in trace.v_counts) == trace.n_slots
        total = math.fsum(v for w in trace.real_occ for v in w.values())
        assert total == pytest.approx(trace.horizon, rel=1e-9)
        assert all(len(col) == 10 for col in trace.final_virtual)

    def test_virtual_counts_match_slots(self, short_trace):
        assert sum(sum(c.values()) for c in short_trace.v_counts) == short_trace.n_slots
        assert len(short_trace.slots) == short_trace.n_slots

    def test_requests_match_event_log(self, short_trace):
        assert short_trace.total_requests == len(short_trace.events)
        hits = sum(1 for e in short_trace.events if e[4] == "hit")
        assert hits == short_trace.total_hits

    def test_event_times_sorted_within_horizon(self, short_trace):
        times = [e[0] for e in short_trace.events]
        assert times == sorted(times)
        assert all(0 < t < short_trace.horizon for t in times)

    def test_hit_rate_integral_two_ways(self, short_trace):
        # Reconstruct the h integral from the event-free occupancy dict and
        # the exact hit-rate table.
        direct = sum(short_trace.h_integral)
        rebuilt = sum(
            short_trace.hit_rates[key] * dt
            for w in short_trace.real_occ
            for key, dt in w.items()
        )
        assert direct == pytest.approx(rebuilt, rel=1e-9)

    def test_snapshot_times_are_boundaries(self, short_trace, line2_config):
        boundaries = itertools.islice(line2_config.schedule.boundaries(), 1, None)
        expect = list(itertools.takewhile(lambda s: s <= short_trace.horizon, boundaries))
        assert [t for t, _ in short_trace.snapshots] == expect

    def test_served_hits_only_from_real_holders(self, short_cfg, short_trace):
        # At eta = 0 a hit is served by a covering station whose real cache
        # holds the content, and a miss means no covering station's does.
        assert short_cfg.eta == 0
        events, met, _ = _replay(short_cfg, short_trace)
        assert events == short_trace.events
        for (_, content, segment, j, action), real in zip(events, met):
            holders = [s for s in segment if real.matrix[content - 1, s - 1]]
            assert j in segment
            assert (j in holders) if action == "hit" else not holders

    def test_window_range_validation(self, short_trace):
        with pytest.raises(ValueError):
            short_trace.real_occupancy(0.9, 0.91)  # empty at 12-window grid
        with pytest.raises(ValueError):
            short_trace.time_average_hit_rate(1.0, 0.5)

    def test_real_occupancy_burn_in(self, short_trace):
        full = short_trace.real_occupancy(0.0)
        tail = short_trace.real_occupancy(2 / 3)
        assert sum(full.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(tail.values()) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            short_trace.real_occupancy(1.0)


class TestRunStatistics:
    def test_hit_rates_consistent(self, line2_config):
        # Observed hits per unit time should match the time average of the
        # exact hit rate of the occupied configurations (Poisson thinning).
        cfg = dataclasses.replace(line2_config, horizon=50_000.0)
        trace = gc.run(cfg, seed=21)
        emp = trace.empirical_hit_rate()
        avg = trace.time_average_hit_rate()
        assert emp == pytest.approx(avg, rel=0.05)
        # And sit between the worst and best exact values.
        assert 0.45 < avg < 0.765

    def test_real_tracks_virtual_distribution(self, line2_config):
        # At beta = 2 the late-run real-cache occupancy should resemble the
        # stationary law; a single seed gets a loose bound.
        cfg = dataclasses.replace(line2_config, horizon=100_000.0)
        trace = gc.run(cfg, seed=22)
        emp = trace.real_occupancy(1 / 3, 1.0)
        assert gc.tv_distance(emp, PI_BETA2) < 0.1

    def test_annealed_beta_final(self, line2_config):
        gp = GibbsParams(mode="annealed", beta0=1.0)
        cfg = dataclasses.replace(line2_config, gibbs=gp, horizon=2000.0)
        trace = gc.run(cfg, seed=23)
        # Last update index is n_slots - 1.
        expect = 1.0 * math.log(1 + (trace.n_slots - 1) // 2)
        assert trace.beta_final == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("mode", ["annealed-3bs", "fixed-line2"])
    def test_beta_of_every_slot(self, mode, line2_config):
        if mode == "annealed-3bs":
            cfg = gc.build_config(
                {
                    "topology": {"intervals": [[0, 6], [1, 10], [8, 15]]},
                    "catalog": {"intensities": [0.1, 0.05, 0.033]},
                    "cache": {"capacity": 1},
                    "gibbs": {"mode": "annealed", "beta0": 0.25},
                    "traffic": {"eta": 0.01},
                    "sim": {"horizon": 300.0, "record_slots": True},
                }
            )
        else:
            cfg = _cfg(line2_config, horizon=300.0, record_slots=True)
        trace = gc.run(cfg, seed=26)
        n = cfg.topology.n_bs
        assert [s[0] for s in trace.slots] == list(range(trace.n_slots))
        assert [s[2] for s in trace.slots] == [
            cfg.gibbs.beta_at(k, n) for k in range(trace.n_slots)
        ]
        assert trace.beta_final == cfg.gibbs.beta_at(trace.n_slots - 1, n)

    def test_learning_run_estimates(self, line2_config):
        gp = GibbsParams(mode="fixed", beta=2.0)
        cfg = dataclasses.replace(
            line2_config, gibbs=gp, estimator=EstimatorConfig(), horizon=50_000.0
        )
        trace = gc.run(cfg, seed=24)
        assert len(trace.estimator) == 6  # 3 segments x 2 contents
        for snap in trace.estimator:
            assert snap.theta == pytest.approx(snap.true_rate, rel=0.15)
        total_counted = sum(s.count for s in trace.estimator)
        assert total_counted == trace.total_requests

    def test_local_learning_run_estimates(self, line2_config):
        # Under local scope each segment is reported from the table of its
        # lowest-numbered covering station, one that can serve it.
        cfg = dataclasses.replace(
            line2_config, estimator=EstimatorConfig(scope="local"),
            eta=0.1, horizon=20_000.0,
        )
        trace = gc.run(cfg, seed=1)
        assert len(trace.estimator) == 6  # 3 segments x 2 contents
        for snap in trace.estimator:
            assert snap.count > 0
            assert snap.theta == pytest.approx(snap.true_rate, rel=0.25)

    def test_real_columns_within_capacity(self, line2_config):
        cfg = dataclasses.replace(line2_config, horizon=3000.0)
        trace = gc.run(cfg, seed=25)
        for key in trace.real_occupancy():
            assert all(len(col) <= cfg.cache_size for col in key)


class TestOneWayFlow:
    """The real caches copy the virtual ones and never feed back: runs that
    differ only in their snapshot epochs share every virtual quantity."""

    @pytest.mark.parametrize("scope", [None, "shared", "local"])
    def test_snapshot_epochs_leave_the_chain_unchanged(self, scope, line2_config):
        learn = {} if scope is None else {"estimator": EstimatorConfig(scope=scope)}
        few, many = (
            gc.run(_cfg(line2_config, horizon=3000.0, eta=0.05, schedule=gc.SnapshotSchedule(t1=t1),
                        record_slots=True, **learn), seed=5)
            for t1 in (10.0, 0.3)
        )
        assert (len(few.snapshots), len(many.snapshots)) == (24, 140)
        assert few.slots == many.slots
        assert few.v_counts == many.v_counts
        assert few.beta_final == many.beta_final
        assert few.estimator == many.estimator
        assert len(few.estimator) == (0 if scope is None else 6)
        assert few.real_occ != many.real_occ
        if scope is None:
            n = few.n_slots
            samples, _, _ = sim.run_chain(
                line2_config.topology, line2_config.catalog, line2_config.cache_size,
                line2_config.gibbs, n, seed=5, record_at=set(range(1, n + 1)),
            )
            assert [s[3] for s in few.slots] == [samples[k] for k in range(1, n + 1)]
