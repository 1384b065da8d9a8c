"""Coupled continuous-time / discrete-slot simulation engine.

Virtual-cache Gibbs updates fire at fixed slot spacing on the continuous
clock, snapshots refresh at the growing epoch boundaries, and every Poisson
request is routed to a serving station and applied to the real caches.
Traces aggregate occupancy, hit counts, and the hit-rate integral into a
fixed number of equal time windows so burn-in / final-third statistics can
be extracted without storing per-event logs; full logs are optional.

Requests are drawn in blocks, and each block runs in two passes, as nothing
the real caches do feeds back into the sampler.  The first fires the
block's slot updates, fed the arrivals before each when the chain learns
the rates, and records at each snapshot boundary a refresh: the first
request it applies to and a copy of the virtual masks.  The second serves
the requests span by span between refreshes.  A request's server draws do
not depend on the caches (see ``traffic.assign_server``), so at a fixed real
state it hits iff a covering station holds the content, or, if it explores,
iff the covering station its draw picks does; that station serves a miss,
which stores iff the snapshot lists the content there.  Requests are looked
up in arrays up to the next store, and each store is applied on its own,
rewriting only the storing station's changed bits and its segments' terms of
the hit rate.  Blocks are sized to the arrivals left; marks use guide tables.

All randomness flows from one seed expanded into named substreams
(bs-pick, column-sample, arrivals, content-mark, segment-mark,
server-pick), so identical (config, seed) pairs give identical traces.  The
request streams are read in blocks through numpy generators that continue
them, which yield the same doubles one draw at a time would.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import islice
from math import ceil, log, sqrt
from operator import add, or_
from typing import Callable

import numpy as np

from .config import ExperimentConfig
from .engine import FastCore, _bits
from .gibbs import GibbsParams, StateKey
from .model import ContentCatalog, UnionRates, _set_bits
from .geometry import CellTopology

# Requests drawn and served per block at most.  Any sizes give the same trace:
# each stream is read in order, and draws past the horizon are never used.
# ``run`` sizes a block to the arrivals expected before the horizon plus four
# standard deviations, but to 2**10 at least, so every block array has 1 KiB
# or more: smaller freed arrays stay in numpy's cache and pile up over runs.
_CHUNK = 1 << 12
_GUIDE = 1 << 12  # buckets of a guide table of marks

STREAM_NAMES = (
    "bs-pick",
    "column-sample",
    "arrivals",
    "content-mark",
    "segment-mark",
    "server-pick",
)


def substreams(seed: int) -> dict[str, random.Random]:
    """Expand one seed into the named independent RNG streams."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {
        name: random.Random(int(child.generate_state(2, np.uint64)[0]))
        for name, child in zip(STREAM_NAMES, children)
    }


@cache
def _zero_seed():
    """A seed sequence of zeros, which ``MT19937`` copies into its state
    without expanding a ``SeedSequence``.  Made on first use, as importing
    ``numpy.random`` takes a few MB that the exact tools never need."""
    from numpy.random.bit_generator import ISeedSequence

    class ZeroSeed(ISeedSequence):
        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return np.zeros(n_words, dtype)

    return ZeroSeed()


def _generator(rng: random.Random) -> np.random.Generator:
    """A numpy generator that continues ``rng``'s stream: both are MT19937,
    so its ``random`` yields the doubles that ``rng.random`` would.  The state
    set decides every draw, so the bit generator starts from zeros."""
    _, state, _ = rng.getstate()
    bits = np.random.MT19937(_zero_seed())
    bits.state = {"bit_generator": "MT19937", "state": {"key": state[:-1], "pos": state[-1]}}
    return np.random.Generator(bits)


def _marks(cum: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse CDF over the running sums ``cum`` by a guide table (Chen and
    Asau, 1974): ``marks(u)`` equals ``np.minimum(np.searchsorted(cum,
    u * cum[-1], "right"), len(cum) - 1)`` for uniforms ``u`` in [0, 1), that
    is ``searchsorted`` over ``stops``, the running sums with the last made
    infinite.  As ``u * cum[-1]`` rounds monotonically, the marks at the edges
    of bucket b, u in [b, b + 1) / _GUIDE, bound its marks: each starts at the
    lower one and steps up while its key is at or above the stop there.
    """
    total = cum[-1]
    stops = np.append(cum[:-1], np.inf)
    bounds = np.searchsorted(stops, np.arange(_GUIDE + 1) / _GUIDE * total, "right")
    lo, steps = bounds[:-1], range(int(np.diff(bounds).max()))

    def marks(u: np.ndarray) -> np.ndarray:
        x = u * total
        r = lo[(u * _GUIDE).astype(np.intp)]
        for _ in steps:
            r += x >= stops[r]
        return r

    return marks


@dataclass
class EstimatorSnapshot:
    """Final estimator state for one (content, segment) pair."""

    content: int
    segment: tuple[int, ...]
    count: int
    theta: float
    true_rate: float


@dataclass
class SimTrace:
    """Windowed aggregates (plus optional full logs) of one simulation run."""

    horizon: float
    n_windows: int
    slot_spacing: float
    seed: int
    real_occ: list[dict[StateKey, float]]
    v_counts: list[Counter]
    hits: list[int]
    misses: list[int]
    h_integral: list[float]
    hit_rates: dict[StateKey, float]
    n_slots: int
    beta_final: float
    final_virtual: StateKey
    final_real: StateKey
    estimator: list[EstimatorSnapshot] = field(default_factory=list)
    events: list[tuple] | None = None
    slots: list[tuple] | None = None
    snapshots: list[tuple[float, StateKey]] = field(default_factory=list)

    @property
    def window_len(self) -> float:
        return self.horizon / self.n_windows

    @property
    def total_hits(self) -> int:
        return sum(self.hits)

    @property
    def total_misses(self) -> int:
        return sum(self.misses)

    @property
    def total_requests(self) -> int:
        return self.total_hits + self.total_misses

    def _window_range(self, start_fraction: float, stop_fraction: float) -> range:
        lo = round(start_fraction * self.n_windows)
        hi = round(stop_fraction * self.n_windows)
        if not (0 <= lo < hi <= self.n_windows):
            raise ValueError(
                f"window range [{start_fraction}, {stop_fraction}) is empty at "
                f"{self.n_windows}-window resolution"
            )
        return range(lo, hi)

    def _law(self, per_window: list[dict], start_fraction: float, stop_fraction: float) -> dict:
        acc: dict = {}
        for w in self._window_range(start_fraction, stop_fraction):
            for key, x in per_window[w].items():
                acc[key] = acc.get(key, 0) + x
        total = reduce(add, acc.values(), 0.0)
        return {k: v / total for k, v in acc.items()}

    def _per_time(self, per_window: list, start_fraction: float, stop_fraction: float) -> float:
        windows = self._window_range(start_fraction, stop_fraction)
        total = reduce(add, (per_window[w] for w in windows), 0.0)
        return total / (len(windows) * self.window_len)

    def real_occupancy(
        self, start_fraction: float = 0.0, stop_fraction: float = 1.0
    ) -> dict[StateKey, float]:
        """Time-fraction the real caches spent in each configuration."""
        return self._law(self.real_occ, start_fraction, stop_fraction)

    def virtual_occupancy(
        self, start_fraction: float = 0.0, stop_fraction: float = 1.0
    ) -> dict[StateKey, float]:
        """Fraction of virtual slots spent in each configuration."""
        return self._law(self.v_counts, start_fraction, stop_fraction)

    def time_average_hit_rate(
        self, start_fraction: float = 0.0, stop_fraction: float = 1.0
    ) -> float:
        """Time average of h(R(tau)) over the selected span."""
        return self._per_time(self.h_integral, start_fraction, stop_fraction)

    def empirical_hit_rate(
        self, start_fraction: float = 0.0, stop_fraction: float = 1.0
    ) -> float:
        """Observed cache hits per unit time over the selected span."""
        return self._per_time(self.hits, start_fraction, stop_fraction)


def tv_distance(p: dict, q: dict) -> float:
    """Total variation distance (half L1) between two distributions."""
    for name, dist in (("p", p), ("q", q)):
        total = reduce(add, dist.values(), 0.0)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {total}, not 1")
    keys = set(p) | set(q)
    return 0.5 * reduce(add, (abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys), 0.0)


def average_distributions(dists: list[dict]) -> dict:
    """Plain average of several distributions over the union support."""
    acc: dict = {}
    for d in dists:
        for k, v in d.items():
            acc[k] = acc.get(k, 0.0) + v
    return {k: v / len(dists) for k, v in acc.items()}


def run(config: ExperimentConfig, seed: int | None = None) -> SimTrace:
    """Simulate one full run; deterministic for a given (config, seed)."""
    top = config.topology
    cat = config.catalog
    if seed is None:
        seed = config.seed
    rngs = substreams(seed)
    bs_randrange = rngs["bs-pick"].randrange
    col_random = rngs["column-sample"].random
    # The request streams are drawn ahead, a block at a time.
    arr_gen, content_gen, segment_gen, server_gen = (
        _generator(rngs[name]) for name in STREAM_NAMES[2:]
    )

    learning = config.estimator is not None
    core = FastCore(top, cat, config.cache_size, config.estimator, config.eta)
    n_bs = top.n_bs
    m = cat.m_contents
    horizon = config.horizon
    n_windows = config.n_windows
    wlen = horizon / n_windows

    # Arrival marks: running sums of popularity and segment area, as in
    # traffic.next_request.
    cum_lam = np.cumsum(cat.intensities)
    cum_area = np.cumsum(core.seg_areas)
    total_rate = cum_lam[-1] * cum_area[-1]
    lam_marks, area_marks = _marks(cum_lam), _marks(cum_area)
    seg_bs = core.seg_bs  # 1-based station lists per segment
    n_seg = len(seg_bs)
    seg_keys = [tuple(bs) for bs in seg_bs]
    # Covering stations (0-based) of all segments in one array: segment q's
    # are cover[first[q]:first[q] + n_cover[q]].
    n_cover = np.array([len(bs) for bs in seg_bs])
    first = np.concatenate(([0], np.cumsum(n_cover)[:-1]))
    cover = np.array([b - 1 for bs in seg_bs for b in bs])
    neighbours = core.neighbours

    # Real caches and the snapshot as per-station content bitmasks; real_key
    # holds the real columns as sorted tuples, and terms[q] is segment q's
    # term area * rate(union of its stations' masks) of the real hit rate.
    # The masks as boolean rows, read by flat index (q * m + i): row q of
    # ``held_at`` says which contents some station of segment q holds, row
    # n_seg + j which station j holds; ``snap_held`` has the snapshot's
    # station rows at the same places.  The real caches start as FastCore's
    # masks; the start snapshot is the first block's first refresh.
    rates = UnionRates(cat)
    real = core.masks[:]
    unions = [reduce(or_, [real[b - 1] for b in bs]) for bs in seg_bs]
    terms = [area * rates[union] for area, union in zip(core.seg_areas, unions)]
    held_at = _bits(unions + real, m).ravel()
    snap_held = np.zeros_like(held_at)
    snap_rows = snap_held[n_seg * m:].reshape(n_bs, m)

    def hold(j: int, new: int) -> None:
        # Set station j's real mask to ``new``: write the bits that change in
        # its own row (no other station's mask enters it) and its segments'
        # rows, and refresh those segments' terms.
        changed = list(_set_bits(real[j] ^ new))
        real[j] = new
        for q, others in [(n_seg + j, ()), *neighbours[j]]:
            union = reduce(or_, [real[b] for b in others], new)
            for i in changed:
                held_at[q * m + i] = union >> i & 1
            if q < n_seg:
                terms[q] = core.seg_areas[q] * rates[union]

    v_key = real_key = core.columns()
    refreshes = [(0, core.masks[:])]  # a copy: a step must not write it
    # The terms added left to right in segment order, as mask_hit_rate adds
    # them (sum() compensates from Python 3.12 on).
    cur_h = reduce(add, terms, 0.0)
    hit_memo: dict[StateKey, float] = {real_key: cur_h}

    boundaries = islice(config.schedule.boundaries(), 1, None)  # S_1, S_2, ...
    next_boundary = next(boundaries)

    real_occ: list[dict[StateKey, float]] = [{} for _ in range(n_windows)]
    v_counts: list[Counter] = [Counter() for _ in range(n_windows)]
    hits, misses = np.zeros((2, n_windows), np.int64)
    h_int = [0.0] * n_windows
    events = [] if config.record_events else None
    slots = [] if config.record_slots else None
    snapshots: list[tuple[float, StateKey]] = []

    def add_real_time(t0: float, t1: float, key: StateKey, h_val: float) -> None:
        # The window index advances with the loop: re-deriving it from the
        # float edge (w+1)*wlen can round down to w and drop the interval.
        w = min(int(t0 / wlen), n_windows - 1)
        while t0 < t1 - 1e-12:
            w_end = horizon if w == n_windows - 1 else (w + 1) * wlen
            seg_end = min(t1, w_end)
            if seg_end > t0:
                dt = seg_end - t0
                occ = real_occ[w]
                occ[key] = occ.get(key, 0.0) + dt
                h_int[w] += h_val * dt
                t0 = seg_end
            w += 1

    spacing = config.slot_spacing
    slot_idx = 0  # number of updates performed; update k fires at (k+1)*spacing
    next_slot = spacing
    last_change = 0.0
    tau = 0.0  # the latest arrival time
    beta_at = config.gibbs.beta_at
    beta = beta_at(0, n_bs)
    step, columns, record_arrival = core.step, core.columns, core.record_arrival
    # The serving pass's flags, the only per-run arrays: it writes them span
    # by span with np.take(out=), as arrays sized by a span would pile up in
    # numpy's cache of freed buffers under 1 KiB over many runs.
    hit_flags, stores = np.empty(_CHUNK, bool), np.empty(_CHUNK, bool)

    while True:
        # The next block of arrivals before the horizon, c of them with c
        # sized to the mean number left, mu, as _CHUNK says.  Exponential
        # inter-arrivals as random.expovariate draws them, summed in order:
        # np.log can differ from math.log in the last bit.
        mu = (horizon - tau) * total_rate
        c = min(_CHUNK, max(1 << 10, ceil(mu + 4 * sqrt(mu))))
        u = 1.0 - arr_gen.random(c)
        times = np.fromiter(map(log, memoryview(u)), float, c) / -total_rate
        times[0] += tau
        times = np.cumsum(times)
        time_at = memoryview(times)  # reads Python floats, as bisect wants
        n = int(np.searchsorted(times, horizon))
        content, segment = lam_marks(content_gen.random(c)), area_marks(segment_gen.random(c))
        # Two server-pick draws per request, as traffic.assign_server takes
        # them: exploration, then the pick.  ``station`` is the covering
        # station at the pick (truncated, as int() does); it serves every
        # explored request and every miss.
        server_u = server_gen.random(2 * c)
        explore, pick = server_u[0::2] < config.eta, server_u[1::2]
        station = cover[(pick * n_cover[segment]).astype(np.int64) + first[segment]]
        served_at = (station + n_seg) * m + content
        # Explored requests hit iff their station holds the content, the
        # others iff some covering station does.
        hit_at = np.where(explore, served_at, segment * m + content)
        if learning:
            # record_arrival reads the server of explored requests only,
            # which ``station`` holds.
            arrivals = zip(segment[:n].tolist(), content[:n].tolist(),
                           station[:n].tolist(), explore[:n].tolist())
        fed = 0  # requests of the block fed to the estimator
        limit = time_at[n - 1] if n == c else horizon

        # Pass 1, the virtual chain: fire slot updates and snapshot
        # boundaries up to the block's last arrival, snapshots first on ties
        # (the reference is V at the boundary minus); an arrival at an
        # update's time comes after it.  Each boundary records a refresh:
        # the first request it applies to and the masks it copies.
        while True:
            t_slot = next_slot
            if next_boundary <= limit and next_boundary <= t_slot:
                k = bisect.bisect_left(time_at, next_boundary, 0, n)
                refreshes.append((k, core.masks[:]))
                snapshots.append((next_boundary, v_key))
                next_boundary = next(boundaries)
                continue
            if t_slot <= limit:
                if learning:
                    k = bisect.bisect_left(time_at, t_slot, fed, n)
                    for arrival in islice(arrivals, k - fed):
                        record_arrival(*arrival)
                    fed = k
                beta = beta_at(slot_idx, n_bs)
                j0 = bs_randrange(n_bs)
                step(j0, beta, col_random(), t_slot)
                v_key = columns()
                w = min(int(t_slot / wlen), n_windows - 1)
                v_counts[w][v_key] += 1
                if slots is not None:
                    slots.append((slot_idx, j0 + 1, beta, v_key))
                slot_idx += 1
                next_slot = (slot_idx + 1) * spacing
                continue
            break
        if learning:
            for arrival in arrivals:
                record_arrival(*arrival)

        # Pass 2, the real caches: serve the requests up to each refresh, and
        # then up to the block's end, in passes that look the rest up at the
        # current real state and end after their first store; at each
        # refresh, adopt its masks as the snapshot.
        a = 0
        for b, masks in [*refreshes, (n, None)]:
            while a < b:
                # Gathers into the flag buffers: "clip" takes no temporary
                # (every index is in range), so no array is sized by the span.
                hit = np.take(held_at, hit_at[a:b], out=hit_flags[a:b], mode="clip")
                # A miss stores iff the snapshot lists the content there.
                store = np.take(snap_held, served_at[a:b], out=stores[a:b], mode="clip")
                np.greater(store, hit, out=store)
                s = a + int(store.argmax())  # the first store, if any
                stored = stores[s]
                e = s + 1 if stored else b
                if events is not None:
                    for r in range(a, e):
                        q, i0, j = int(segment[r]), int(content[r]), int(station[r]) + 1
                        action = "hit" if hit_flags[r] else "store" if stores[r] else "miss"
                        if action == "hit" and not explore[r]:
                            holders = [c for c in seg_bs[q] if real[c - 1] >> i0 & 1]
                            j = holders[int(pick[r] * len(holders))]
                        events.append((time_at[r], i0 + 1, seg_keys[q], j, action))
                a = e
                if stored:
                    # Store the content; evict what the snapshot dropped.
                    j, i0, t = int(station[s]), int(content[s]), time_at[s]
                    add_real_time(last_change, t, real_key, cur_h)
                    last_change = t
                    new = real[j] & snap[j] | 1 << i0
                    hold(j, new)
                    col = tuple(i + 1 for i in _set_bits(new))
                    real_key = (*real_key[:j], col, *real_key[j + 1:])
                    cur_h = hit_memo.get(real_key)
                    if cur_h is None:
                        cur_h = hit_memo[real_key] = reduce(add, terms, 0.0)
            if masks is not None:
                snap = masks
                snap_rows[:] = _bits(snap, m)
        refreshes = []
        window = np.minimum(times / wlen, n_windows - 1).astype(np.int64)
        # Count window w's misses at 2w and its hits at 2w + 1.
        counts = np.bincount((2 * window + hit_flags[:c])[:n], minlength=2 * n_windows)
        misses += counts[0::2]
        hits += counts[1::2]
        if n < c:
            break
        tau = limit

    add_real_time(last_change, horizon, real_key, cur_h)

    # The shared table, or under local scope each segment's row in the table
    # of its lowest-numbered covering station.
    tables = [bs[0] - 1 if core.local else 0 for bs in seg_bs]
    estimator = [
        EstimatorSnapshot(
            i0 + 1, seg_keys[q], core.est_counts[tables[q]][q][i0],
            core.theta(q, i0, horizon, tables[q]), core.true_rates[q][i0],
        )
        for q in range(n_seg)
        for i0 in range(m)
    ] if learning else []

    return SimTrace(
        horizon=horizon,
        n_windows=n_windows,
        slot_spacing=spacing,
        seed=seed,
        real_occ=real_occ,
        v_counts=v_counts,
        hits=hits.tolist(),
        misses=misses.tolist(),
        h_integral=h_int,
        hit_rates=dict(hit_memo),
        n_slots=slot_idx,
        beta_final=beta,
        final_virtual=v_key,
        final_real=real_key,
        estimator=estimator,
        events=events,
        slots=slots,
        snapshots=snapshots,
    )


def run_chain(
    top: CellTopology,
    cat: ContentCatalog,
    cache_size: int,
    params: GibbsParams,
    n_slots: int,
    seed: int,
    record_at: set[int] | None = None,
    initial: StateKey | None = None,
) -> tuple[dict[int, StateKey], Counter, StateKey]:
    """Advance the virtual chain alone for ``n_slots`` updates, from
    ``initial`` or else from FastCore's start (the K most popular contents
    at every station).

    Returns configurations sampled at the requested slot indices (state
    after that update), occupancy counts over all slots, and the final
    configuration.  Used by convergence diagnostics that need no traffic.
    """
    rngs = substreams(seed)
    r_bs, r_col = rngs["bs-pick"], rngs["column-sample"]
    core = FastCore(top, cat, cache_size)
    if initial is not None:
        core.set_columns(initial)
    samples: dict[int, StateKey] = {}
    occupancy: Counter = Counter()
    for t in range(n_slots):
        beta = params.beta_at(t, top.n_bs)
        core.step(r_bs.randrange(top.n_bs), beta, r_col.random())
        key = core.columns()
        occupancy[key] += 1
        if record_at and t + 1 in record_at:
            samples[t + 1] = key
    return samples, occupancy, core.columns()
