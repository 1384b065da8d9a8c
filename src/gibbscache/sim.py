"""Coupled continuous-time / discrete-slot simulation engine.

Virtual-cache Gibbs updates fire at fixed slot spacing on the continuous
clock, snapshots refresh at the growing epoch boundaries, and every Poisson
request is routed to a serving station and applied to the real caches.
Traces aggregate occupancy, hit counts, and the hit-rate integral into a
fixed number of equal time windows so burn-in / final-third statistics can
be extracted without storing per-event logs; full logs are optional.

Requests are drawn and served in blocks.  A request's server draws do not
depend on the caches (see ``traffic.assign_server``), so at a fixed real
state it hits iff a covering station holds the content, or, if it explores,
iff the covering station its draw picks does; that station serves a miss,
which stores iff the snapshot lists the content there.  A block is resolved
with array lookups up to its next store, and each store is applied on its
own.  The virtual chain advances slot by slot in between, fed the arrivals
before each slot when it learns the rates.

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
from functools import reduce
from math import log
from operator import or_

import numpy as np

from .config import ExperimentConfig
from .engine import FastCore
from .gibbs import GibbsParams, StateKey
from .model import ContentCatalog, mask_hit_rate
from .geometry import CellTopology

# Requests drawn and served per block.  Any size gives the same trace; every
# block array has this many entries.
_CHUNK = 1 << 10

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


def _generator(rng: random.Random) -> np.random.Generator:
    """A numpy generator that continues ``rng``'s stream: both are MT19937,
    so its ``random`` yields the doubles that ``rng.random`` would."""
    _, state, _ = rng.getstate()
    bits = np.random.MT19937()
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[:-1], np.uint32), "pos": state[-1]},
    }
    return np.random.Generator(bits)


def _bits(mask: int, m: int) -> np.ndarray:
    """Boolean array of the low ``m`` bits of ``mask``, bit i at index i."""
    raw = np.frombuffer(mask.to_bytes((m + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=m, bitorder="little").view(bool)


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
        total = sum(acc.values())
        return {k: v / total for k, v in acc.items()}

    def _per_time(self, per_window: list, start_fraction: float, stop_fraction: float) -> float:
        windows = self._window_range(start_fraction, stop_fraction)
        return sum(per_window[w] for w in windows) / (len(windows) * self.window_len)

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
        total = sum(dist.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} sums to {total}, not 1")
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


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

    learning = config.learning
    core = FastCore(
        top, cat, config.cache_size, config.estimator if learning else None, config.eta
    )
    n_bs = top.n_bs
    m = cat.m_contents
    horizon = config.horizon
    n_windows = config.n_windows
    wlen = horizon / n_windows
    eta = config.eta

    # Arrival marks: running sums of popularity and segment area, as in
    # traffic.next_request.
    cum_lam = np.cumsum(cat.intensities)
    cum_area = np.cumsum(core.seg_areas)
    total_rate = cum_lam[-1] * cum_area[-1]
    seg_bs = core.seg_bs  # 1-based station lists per segment
    n_seg = len(seg_bs)
    seg_keys = [tuple(bs) for bs in seg_bs]
    # Covering stations (0-based) of all segments in one array: segment q's
    # are cover[first[q]:first[q] + n_cover[q]].
    n_cover = np.array([len(bs) for bs in seg_bs])
    first = np.concatenate(([0], np.cumsum(n_cover)[:-1]))
    cover = np.array([b - 1 for bs in seg_bs for b in bs])
    neighbours = core.neighbours

    # Real caches and the snapshot as per-station content bitmasks copied from
    # FastCore's; real_key holds the real columns as sorted tuples.
    real_h = mask_hit_rate(top, cat)  # under-full columns included
    v_key = real_key = core.columns()
    snap = core.masks[:]  # a copy: a step must not write the snapshot
    real = snap[:]  # a copy: a store must not write the snapshot
    real_cols = list(real_key)
    cur_h = real_h(real)
    hit_memo: dict[StateKey, float] = {real_key: cur_h}
    # The masks as boolean rows, read by flat index (q * m + i): row q of
    # ``held`` says which contents some station of segment q holds, row
    # n_seg + j which station j holds; ``snap_held`` has the snapshot's
    # station rows at the same places.
    held = np.zeros((n_seg + n_bs, m), bool)
    held_at = held.ravel()  # a view: rewritten rows show through

    def hold(j: int) -> None:
        # Rewrite the rows that station j's real mask enters.
        held[n_seg + j] = _bits(real[j], m)
        for q, others in neighbours[j]:
            held[q] = _bits(reduce(or_, [real[b] for b in others], real[j]), m)

    def snap_rows() -> np.ndarray:
        return np.concatenate([np.zeros(n_seg * m, bool), *(_bits(x, m) for x in snap)])

    for j in range(n_bs):
        hold(j)
    snap_held = snap_rows()

    sched = config.make_schedule()
    next_boundary_idx = 1
    next_boundary = sched.boundary(1)

    real_occ: list[dict[StateKey, float]] = [{} for _ in range(n_windows)]
    v_counts: list[Counter] = [Counter() for _ in range(n_windows)]
    hits = np.zeros(n_windows, np.int64)
    misses = np.zeros(n_windows, np.int64)
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

    def resolve(a: int, b: int) -> None:
        """Serve requests a..b-1 of the block against the current snapshot:
        each pass looks the rest up at the current real state and ends
        after its first store."""
        nonlocal real_key, cur_h, last_change
        while a < b:
            # Gathers into the flag buffers: "clip" takes no temporary
            # (every index is in range), so no array is sized by the span.
            hit = np.take(held_at, hit_at[a:b], out=hit_flags[a:b], mode="clip")
            # A miss stores iff the snapshot lists the content at its station.
            store = np.take(snap_held, served_at[a:b], out=stores[a:b], mode="clip")
            np.greater(store, hit, out=store)
            s = int(store.argmax())
            if not store[s]:
                if events is not None:
                    log_events(a, b, -1)
                return
            e = a + s + 1
            if events is not None:
                log_events(a, e, e - 1)
            # Store the content; evict what the snapshot dropped.
            j, i0, t = int(station[s + a]), int(content[s + a]), time_at[s + a]
            add_real_time(last_change, t, real_key, cur_h)
            last_change = t
            new = real[j] = real[j] & snap[j] | 1 << i0
            real_cols[j] = tuple(i + 1 for i in range(m) if new >> i & 1)
            real_key = tuple(real_cols)
            cur_h = hit_memo.get(real_key)
            if cur_h is None:
                cur_h = hit_memo[real_key] = real_h(real)
            hold(j)
            a = e

    def log_events(a: int, e: int, stored: int) -> None:
        # Requests a..e-1 met the current real state; request ``stored``
        # (-1 for none) stored.
        for r in range(a, e):
            q, i0, j = int(segment[r]), int(content[r]), int(station[r]) + 1
            covering = seg_bs[q]
            if not hit_flags[r]:
                action = "store" if r == stored else "miss"
            else:
                action = "hit"
                if not explore[r]:
                    holders = [b for b in covering if real[b - 1] >> i0 & 1]
                    j = holders[int(pick[r] * len(holders))]
            events.append((time_at[r], i0 + 1, seg_keys[q], j, action))

    def marks(gen: np.random.Generator, cum: np.ndarray) -> np.ndarray:
        # A block of marks by inverse CDF over the running sums ``cum``.
        return np.minimum(np.searchsorted(cum, gen.random(_CHUNK) * cum[-1], "right"), len(cum) - 1)

    def feed(a: int, b: int) -> None:
        # record_arrival reads the server of explored requests only, which
        # ``station`` holds.
        for r in range(a, b):
            record_arrival(segment_l[r], content_l[r], station_l[r], explore_l[r])

    spacing = config.slot_spacing
    slot_idx = 0  # number of updates performed; update k fires at (k+1)*spacing
    next_slot = spacing
    last_change = 0.0
    tau = 0.0  # the latest arrival time
    beta_at = config.gibbs.beta_at
    beta = beta_at(0, n_bs)
    step = core.step
    columns = core.columns
    record_arrival = core.record_arrival
    # resolve's flags, the only per-run arrays: it writes them span by span
    # with np.take(out=), as arrays sized by a span would pile up in numpy's
    # cache of freed buffers under 1 KiB over many runs.
    hit_flags, stores = np.empty(_CHUNK, bool), np.empty(_CHUNK, bool)

    while True:
        # The next block of arrivals before the horizon.  Exponential
        # inter-arrivals as random.expovariate draws them, summed in order:
        # np.log can differ from math.log in the last bit.
        u = 1.0 - arr_gen.random(_CHUNK)
        times = np.fromiter(map(log, memoryview(u)), float, _CHUNK) / -total_rate
        times[0] += tau
        times = np.cumsum(times)
        time_at = memoryview(times)  # reads Python floats, as bisect wants
        n = int(np.searchsorted(times, horizon))
        content, segment = marks(content_gen, cum_lam), marks(segment_gen, cum_area)
        # Two server-pick draws per request, as traffic.assign_server takes
        # them: exploration, then the pick.  ``station`` is the covering
        # station at the pick (truncated, as int() does); it serves every
        # explored request and every miss.
        server_u = server_gen.random(2 * _CHUNK)
        explore, pick = server_u[0::2] < eta, server_u[1::2]
        station = cover[(pick * n_cover[segment]).astype(np.int64) + first[segment]]
        served_at = (station + n_seg) * m + content
        # Explored requests hit iff their station holds the content, the
        # others iff some covering station does.
        hit_at = np.where(explore, served_at, segment * m + content)
        if learning:
            segment_l, content_l = segment[:n].tolist(), content[:n].tolist()
            station_l, explore_l = station[:n].tolist(), explore[:n].tolist()
        fed = done = 0  # requests of the block fed to the estimator, served
        limit = time_at[n - 1] if n == _CHUNK else horizon

        # Fire slot updates and snapshot refreshes up to the block's last
        # arrival, snapshots first on ties (the reference is V at the
        # boundary minus); an arrival at an update's time comes after it.
        while True:
            t_snap = next_boundary
            t_slot = next_slot
            if t_snap <= limit and t_snap <= t_slot:
                k = bisect.bisect_left(time_at, t_snap, done, n)
                resolve(done, k)
                done = k
                snap = core.masks[:]
                snap_held = snap_rows()
                snapshots.append((t_snap, v_key))
                next_boundary_idx += 1
                next_boundary = sched.boundary(next_boundary_idx)
                continue
            if t_slot <= limit:
                if learning:
                    k = bisect.bisect_left(time_at, t_slot, fed, n)
                    feed(fed, k)
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
        resolve(done, n)
        if learning:
            feed(fed, n)
        window = np.minimum(times / wlen, n_windows - 1).astype(np.int64)
        # Count window w's misses at 2w and its hits at 2w + 1.
        counts = np.bincount((2 * window + hit_flags)[:n], minlength=2 * n_windows)
        misses += counts[0::2]
        hits += counts[1::2]
        if n < _CHUNK:
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
