"""Coupled continuous-time / discrete-slot simulation engine.

Virtual-cache Gibbs updates fire at fixed slot spacing on the continuous
clock, snapshots refresh at the growing epoch boundaries, and every Poisson
request is routed to a serving station and applied to the real caches.
Traces aggregate occupancy, hit counts, and the hit-rate integral into a
fixed number of equal time windows so burn-in / final-third statistics can
be extracted without storing per-event logs; full logs are optional.

``run`` draws requests in blocks sized to the arrivals left, and runs each
block in two passes, as nothing the real caches do feeds back into the
sampler.  The clock pass (``_clock_pass``) runs the block's slot updates on
the slot clock (``_SlotClock``, which ``run_chain`` runs alone), each seeing
the arrivals before it when the chain learns the rates, and takes the
virtual configuration at each snapshot boundary.  The serve pass
(``_serve``) serves the requests on the real caches (``_RealCaches``) span
by span between those refreshes.  A request's server draws do not depend on
the caches (see ``traffic.assign_server``), so at a fixed real state it hits
iff a covering station holds the content, or, if it explores, iff the
covering station its draw picks does; that station serves a miss, which
stores iff the snapshot lists the content there.  Requests are looked up in
arrays up to the next store, and each store is applied on its own.

All randomness flows from one seed expanded into named substreams
(bs-pick, column-sample, arrivals, content-mark, segment-mark,
server-pick), so identical (config, seed) pairs give identical traces.
Every stream is read ahead in arrays that hold the draws one draw at a time
would give: the request streams through numpy generators that continue
them, the chain's from their raw outputs (``blocks.SlotDraws``).
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from itertools import islice, takewhile
from math import ceil, log, sqrt
from operator import add, ge, or_
from typing import Callable

import numpy as np

from .blocks import SlotDraws, slot_betas
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
_SLOTS = 1 << 10  # virtual-chain slots run at a time (FastCore.advance)

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


class _SlotClock:
    """The virtual chain's slot clock: update k (0-based) fires at (k + 1) *
    ``spacing``, at the draws of ``SlotDraws`` and the beta of
    ``slot_betas``; ``n_slots`` counts the updates run."""

    def __init__(self, core: FastCore, params: GibbsParams, rngs: dict, spacing: float = 1.0):
        self.core, self.params, self.spacing = core, params, spacing
        self.draws = SlotDraws(rngs["bs-pick"], rngs["column-sample"], core.n_bs)
        self.n_slots = 0

    def run(self, last: int, times=None, arrivals=None):
        """Run the updates up to the ``last``-th, ``_SLOTS`` at a time; yield
        per run the slot times (padded), stations, betas and configurations.
        A slot sees the ``arrivals`` at ``times`` before it, if any (an
        arrival at a slot's time comes after it)."""
        while self.n_slots < last:
            k0 = self.n_slots
            count = min(last - k0, _SLOTS)
            # The slots' arrays are computed for the next power of two slots,
            # so that they take a few sizes only (numpy keeps freed buffers of
            # each size under 1 KiB), and read up to count.
            size = 1 << (count - 1).bit_length()
            t_all = np.arange(k0 + 1, k0 + size + 1) * self.spacing
            js, us = self.draws.take(count)
            betas = slot_betas(self.params, k0, k0 + size, self.core.n_bs)[:count]
            fed = None if arrivals is None else np.searchsorted(times, t_all)[:count]
            keys = self.core.advance(js, betas, us, t_all[:count], arrivals, fed)
            self.n_slots += count
            yield t_all, js, betas, keys


class _RealCaches:
    """The real caches and their account per window.  ``masks`` has one
    content bitmask per station, ``key`` its sorted tuples, and ``held`` the
    masks as boolean rows read by flat index (q * m + i): row q says which
    contents some station of segment q holds, row n_seg + j which station j
    holds; ``snap_held`` has the snapshot's station rows there.  ``terms[q]``
    is segment q's term area * rate(union of its stations' masks) of the hit
    rate ``h``.  Per window: ``occ``, the time in each configuration, and
    ``h_int``, the integral of h, up to ``since``; ``hits`` and ``misses``."""

    def __init__(self, core: FastCore, cat: ContentCatalog, horizon: float, n_windows: int):
        self.core, self.rates = core, UnionRates(cat)
        self.m, self.n_seg = core.m, len(core.seg_bs)
        self.masks = core.masks[:]  # a copy: a step must not write it
        unions = [reduce(or_, [self.masks[b - 1] for b in bs]) for bs in core.seg_bs]
        self.terms = [area * self.rates[union] for area, union in zip(core.seg_areas, unions)]
        self.held = _bits(unions + self.masks, self.m).ravel()
        self.snap_held = np.zeros_like(self.held)
        self.key = core.columns()
        self.refresh(core.masks[:])  # the snapshot starts as the chain does
        # The terms added left to right in segment order, as mask_hit_rate
        # adds them (sum() compensates from Python 3.12 on).
        self.h = reduce(add, self.terms, 0.0)
        self.hit_rates = {self.key: self.h}
        self.horizon, self.wlen = horizon, horizon / n_windows
        self.occ: list[dict[StateKey, float]] = [{} for _ in range(n_windows)]
        self.h_int = [0.0] * n_windows
        self.since = 0.0
        self.hits, self.misses = np.zeros((2, n_windows), np.int64)

    def refresh(self, masks: list[int]) -> None:
        """Adopt the per-station content bitmasks ``masks`` as the snapshot."""
        self.snap = masks
        self.snap_held[self.n_seg * self.m :] = _bits(self.snap, self.m).ravel()

    def store(self, j: int, i0: int, t: float) -> None:
        """Store content ``i0`` at station ``j`` (0-based) at time ``t``, and
        evict what the snapshot dropped there: ``real & snap | bit``.  Only
        the changed bits of the station's row and its segments' rows are
        written, and only those segments' terms refreshed."""
        self.occupy(t)
        masks, held, terms, m, n_seg = self.masks, self.held, self.terms, self.m, self.n_seg
        new = masks[j] & self.snap[j] | 1 << i0
        changed = list(_set_bits(masks[j] ^ new))
        masks[j] = new
        for q, others in [(n_seg + j, ()), *self.core.neighbours[j]]:
            union = reduce(or_, [masks[b] for b in others], new)
            for i in changed:
                held[q * m + i] = union >> i & 1
            if q < n_seg:
                terms[q] = self.core.seg_areas[q] * self.rates[union]
        col = tuple(i + 1 for i in _set_bits(new))
        self.key = key = (*self.key[:j], col, *self.key[j + 1 :])
        if key not in self.hit_rates:
            self.hit_rates[key] = reduce(add, terms, 0.0)
        self.h = self.hit_rates[key]

    def occupy(self, t1: float) -> None:
        """Add the time from the last change to ``t1`` to the windows it
        spans, at the current configuration and hit rate."""
        t0, last, wlen, key = self.since, len(self.occ) - 1, self.wlen, self.key
        # The window index advances with the loop: re-deriving it from the
        # float edge (w+1)*wlen can round down to w and drop the interval.
        w = min(int(t0 / wlen), last)
        while t0 < t1 - 1e-12:
            end = min(t1, self.horizon if w == last else (w + 1) * wlen)
            if end > t0:
                dt = end - t0
                self.occ[w][key] = self.occ[w].get(key, 0.0) + dt
                self.h_int[w] += self.h * dt
                t0 = end
            w += 1
        self.since = t1


def _clock_pass(clock: _SlotClock, limit, due, times, arrivals, v_counts, wlen, slots):
    """Pass 1, the virtual chain: run the slot updates up to time ``limit``,
    count them in ``v_counts`` and log them in ``slots``.  Returns the
    configuration at each snapshot boundary of ``due``, the one after the
    slots before it (snapshots go first on ties: V at the boundary minus)."""
    last = int(limit / clock.spacing)  # the slots up to limit, exactly
    while (last + 1) * clock.spacing <= limit:
        last += 1
    while last > clock.n_slots and last * clock.spacing > limit:
        last -= 1
    last_w = len(v_counts) - 1
    at, key = [], clock.core.columns()
    for t_all, js, betas, keys in clock.run(last, times, arrivals):
        count = len(keys)
        while len(at) < len(due) and due[len(at)] <= t_all[count - 1]:
            i = int(np.searchsorted(t_all[:count], due[len(at)]))
            at.append(keys[i - 1] if i else key)
        key = keys[-1]
        w = min(int(t_all[0] / wlen), last_w)
        if w == min(int(t_all[count - 1] / wlen), last_w):
            v_counts[w].update(keys)
        else:  # the slots' windows, split where they change
            window = np.minimum((t_all / wlen).astype(np.int64), last_w)
            changes = (np.flatnonzero(np.diff(window)) + 1).tolist()
            edges = [0, *(e for e in changes if e < count), count]
            for a, b in zip(edges, edges[1:]):
                v_counts[window[a]].update(keys[a:b])
        if slots is not None:
            k0 = clock.n_slots - count
            slots.extend(zip(range(k0, clock.n_slots), (js + 1).tolist(), betas.tolist(), keys))
    return at + [key] * (len(due) - len(at))


def _serve(caches: _RealCaches, refreshes, times, n, hit_at, served_at, hit_flags, stores):
    """Pass 2, the real caches: serve a block's n requests before the horizon
    up to each refresh ``(b, key)``, then adopt ``key`` as the snapshot, in
    spans looked up at the current real state that end after their first
    store; yield each span ``(a, e)`` before its store is applied.  Then
    count the block's hits and misses per window."""
    time_at, held, snap_held, a = memoryview(times), caches.held, caches.snap_held, 0
    for b, key in [*refreshes, (n, None)]:
        while a < b:
            # Gathers into the flag buffers: "clip" takes no temporary
            # (every index is in range), so no array is sized by the span.
            hit = np.take(held, hit_at[a:b], out=hit_flags[a:b], mode="clip")
            # A miss stores iff the snapshot lists the content there.
            store = np.take(snap_held, served_at[a:b], out=stores[a:b], mode="clip")
            np.greater(store, hit, out=store)
            s = a + int(store.argmax())  # the first store, if any
            stored = stores[s]
            e = s + 1 if stored else b
            yield a, e
            a = e
            if stored:  # served_at[s] is the storing station's row at the content
                j, i0 = divmod(int(served_at[s]), caches.m)
                caches.store(j - caches.n_seg, i0, time_at[s])
        if key is not None:
            caches.refresh([sum(1 << (i - 1) for i in col) for col in key])
    n_windows = len(caches.occ)
    window = np.minimum(times / caches.wlen, n_windows - 1).astype(np.int64)
    # Count window w's misses at 2w and its hits at 2w + 1.
    counts = np.bincount((2 * window + hit_flags)[:n], minlength=2 * n_windows)
    caches.misses += counts[0::2]
    caches.hits += counts[1::2]


def _estimates(core: FastCore, now: float) -> list[EstimatorSnapshot]:
    """The estimator at ``now``: the shared table, or under local scope each
    segment's row in the table of its lowest-numbered covering station."""
    tables = [bs[0] - 1 if core.local else 0 for bs in core.seg_bs]
    return [
        EstimatorSnapshot(i0 + 1, tuple(bs), int(core.est_counts[t, q, i0]),
                          core.theta(q, i0, now, t), core.true_rates[q][i0])
        for q, (bs, t) in enumerate(zip(core.seg_bs, tables))
        for i0 in range(core.m)
    ]


def run(config: ExperimentConfig, seed: int | None = None) -> SimTrace:
    """Simulate one full run; deterministic for a given (config, seed)."""
    top, cat, horizon, n_windows = config.topology, config.catalog, config.horizon, config.n_windows
    seed = config.seed if seed is None else seed
    rngs = substreams(seed)
    # Every stream is drawn ahead, a block at a time.
    arr_gen, content_gen, segment_gen, server_gen = (_generator(rngs[s]) for s in STREAM_NAMES[2:])
    learning = config.estimator is not None
    core = FastCore(top, cat, config.cache_size, config.estimator, config.eta)
    clock = _SlotClock(core, config.gibbs, rngs, config.slot_spacing)
    caches = _RealCaches(core, cat, horizon, n_windows)
    m, wlen = caches.m, horizon / n_windows

    # Arrival marks: running sums of popularity and segment area, as in
    # traffic.next_request.
    cum_lam, cum_area = np.cumsum(cat.intensities), np.cumsum(core.seg_areas)
    total_rate = cum_lam[-1] * cum_area[-1]
    lam_marks, area_marks = _marks(cum_lam), _marks(cum_area)
    seg_keys = [tuple(bs) for bs in core.seg_bs]  # 1-based stations per segment
    # Covering stations (0-based) of all segments in one array: segment q's
    # are cover[first[q]:first[q] + n_cover[q]].
    n_cover = np.array([len(bs) for bs in seg_keys])
    first = np.concatenate(([0], np.cumsum(n_cover)[:-1]))
    cover = np.array([b - 1 for bs in seg_keys for b in bs])
    # The snapshot boundaries S_1, S_2, ... up to the horizon.
    bounds = list(takewhile(partial(ge, horizon), islice(config.schedule.boundaries(), 1, None)))
    v_counts: list[Counter] = [Counter() for _ in range(n_windows)]
    events = [] if config.record_events else None
    slots = [] if config.record_slots else None
    snapshots: list[tuple[float, StateKey]] = []
    tau = 0.0  # the latest arrival time
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
        served_at = (station + caches.n_seg) * m + content
        # Explored requests hit iff their station holds the content, the
        # others iff some covering station does.
        hit_at = np.where(explore, served_at, segment * m + content)
        # The estimator reads the server of explored requests only, which
        # ``station`` holds.
        arrivals = (core.arrivals(segment[:n], content[:n], station[:n], explore[:n])
                    if learning else None)
        limit = time_at[n - 1] if n == c else horizon
        # The serve pass's flags, written span by span by np.take(out=): arrays
        # sized by a span would pile up in numpy's cache of freed buffers.
        hit_flags, stores = np.empty((2, c), bool)

        due = bounds[len(snapshots) : bisect.bisect_right(bounds, limit)]
        at = _clock_pass(clock, limit, due, times[:n], arrivals, v_counts, wlen, slots)
        snapshots += zip(due, at)
        if learning:
            core.record_arrivals(arrivals, n)
        # A refresh applies from the first request at or after its boundary.
        refreshes = [(bisect.bisect_left(time_at, t, 0, n), key) for t, key in zip(due, at)]
        for a, e in _serve(caches, refreshes, times, n, hit_at, served_at, hit_flags, stores):
            for r in range(a, e) if events is not None else ():
                q, i0, j = int(segment[r]), int(content[r]), int(station[r]) + 1
                action = "hit" if hit_flags[r] else "store" if stores[r] else "miss"
                if action == "hit" and not explore[r]:
                    holders = [b for b in seg_keys[q] if caches.masks[b - 1] >> i0 & 1]
                    j = holders[int(pick[r] * len(holders))]
                events.append((time_at[r], i0 + 1, seg_keys[q], j, action))
        if n < c:
            break
        tau = limit

    caches.occupy(horizon)
    return SimTrace(
        horizon=horizon, n_windows=n_windows, slot_spacing=config.slot_spacing, seed=seed,
        real_occ=caches.occ, v_counts=v_counts, hits=caches.hits.tolist(),
        misses=caches.misses.tolist(), h_integral=caches.h_int, hit_rates=caches.hit_rates,
        n_slots=clock.n_slots, final_virtual=core.columns(), final_real=caches.key,
        beta_final=config.gibbs.beta_at(max(clock.n_slots - 1, 0), core.n_bs),
        estimator=_estimates(core, horizon) if learning else [],
        events=events, slots=slots, snapshots=snapshots,
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

    Returns configurations sampled at the requested slot indices 1 to
    ``n_slots`` (state after that update), occupancy counts over all slots,
    and the final configuration.  Used by convergence diagnostics.
    """
    marks = sorted(record_at or ())
    bad = [t for t in marks if t not in range(1, n_slots + 1)]
    if bad:
        raise ValueError(f"record_at entries {bad} are outside the slots 1..{n_slots}")
    core = FastCore(top, cat, cache_size)
    if initial is not None:
        core.set_columns(initial)
    clock = _SlotClock(core, params, substreams(seed))
    samples: dict[int, StateKey] = {}
    occupancy: Counter = Counter()
    for _, _, _, keys in clock.run(n_slots):
        occupancy.update(keys)
        k0, k1 = clock.n_slots - len(keys), clock.n_slots
        for t in marks[bisect.bisect_right(marks, k0) : bisect.bisect_right(marks, k1)]:
            samples[t] = keys[t - k0 - 1]
    return samples, occupancy, core.columns()
