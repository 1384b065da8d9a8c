"""Coupled continuous-time / discrete-slot simulation engine.

Virtual-cache Gibbs updates fire at fixed slot spacing on the continuous
clock, snapshots refresh at the growing epoch boundaries, and every Poisson
request is routed to a serving station and applied to the real caches.
Traces aggregate occupancy, hit counts, and the hit-rate integral into a
fixed number of equal time windows so burn-in / final-third statistics can
be extracted without storing per-event logs; full logs are optional.

All randomness flows from one seed expanded into named substreams
(bs-pick, column-sample, arrivals, content-mark, segment-mark,
server-pick), so identical (config, seed) pairs give identical traces.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from math import log

import numpy as np

from .config import ExperimentConfig
from .engine import FastCore
from .gibbs import GibbsParams, StateKey
from .model import ContentCatalog, mask_hit_rate
from .geometry import CellTopology

_INF = float("inf")

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
    arr_random = rngs["arrivals"].random
    content_random = rngs["content-mark"].random
    segment_random = rngs["segment-mark"].random
    server_random = rngs["server-pick"].random
    server_randrange = rngs["server-pick"].randrange

    learning = config.learning
    core = FastCore(
        top, cat, config.cache_size, config.estimator if learning else None, config.eta
    )
    n_bs = top.n_bs
    m = cat.m_contents
    lam = cat.intensities
    horizon = config.horizon
    n_windows = config.n_windows
    wlen = horizon / n_windows
    eta = config.eta

    # Arrival marks: running sums of popularity and segment area, as in
    # traffic.next_request.
    cum_lam = list(accumulate(lam))
    total_lam = cum_lam[-1]
    cum_area = list(accumulate(core.seg_areas))
    total_area = cum_area[-1]
    total_rate = total_lam * total_area
    seg_bs = core.seg_bs  # 1-based station lists per segment
    n_seg = len(seg_bs)

    # Real caches and the snapshot as per-station content bitmasks copied from
    # FastCore's; real_key holds the real columns as sorted tuples.
    real_h = mask_hit_rate(top, cat)  # under-full columns included
    v_key = real_key = core.columns()
    snap = core.masks[:]  # a copy: a step must not write the snapshot
    real = snap[:]  # a copy: a store must not write the snapshot
    real_cols = list(real_key)
    cur_h = real_h(real)
    hit_memo: dict[StateKey, float] = {real_key: cur_h}

    sched = config.make_schedule()
    next_boundary_idx = 1
    next_boundary = sched.boundary(1)

    real_occ: list[dict[StateKey, float]] = [{} for _ in range(n_windows)]
    v_counts: list[Counter] = [Counter() for _ in range(n_windows)]
    hits = [0] * n_windows
    misses = [0] * n_windows
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
    tau = 0.0
    beta_at = config.gibbs.beta_at
    beta = beta_at(0, n_bs)
    # Non-exploring server pool per (segment, content), keyed q * m + i0; a
    # pool changes only when a real cache does.
    pools: dict[int, list[int]] = {}
    step = core.step
    columns = core.columns

    while True:
        # Exponential inter-arrival, drawn as random.expovariate draws it.
        t_arr = tau - log(1.0 - arr_random()) / total_rate
        limit = t_arr if t_arr < horizon else horizon
        # Fire slot updates and snapshot refreshes up to the next arrival,
        # snapshots first on ties (the reference is V at the boundary minus).
        while True:
            t_snap = next_boundary
            t_slot = next_slot
            if t_snap <= limit and t_snap <= t_slot:
                snap = core.masks[:]
                snapshots.append((t_snap, v_key))
                next_boundary_idx += 1
                next_boundary = sched.boundary(next_boundary_idx)
                continue
            if t_slot <= limit:
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
        if t_arr >= horizon:
            break
        tau = t_arr

        # Mark the arrival: content and segment identity.
        u = content_random() * total_lam
        i0 = bisect.bisect_right(cum_lam, u)
        if i0 >= m:
            i0 = m - 1
        v = segment_random() * total_area
        q = bisect.bisect_right(cum_area, v)
        if q >= n_seg:
            q = n_seg - 1
        bit = 1 << i0

        # Serving-station selection.
        covering = seg_bs[q]
        explore = eta > 0 and server_random() < eta
        if explore:
            pool = covering
        else:
            pool = pools.get(q * m + i0)
            if pool is None:
                pool = [j for j in covering if real[j - 1] & bit] or covering
                pools[q * m + i0] = pool
        j = pool[server_randrange(len(pool))] if len(pool) > 1 else pool[0]
        if learning:
            core.record_arrival(q, i0, j - 1, explore)

        # Real-cache update.
        w = min(int(tau / wlen), n_windows - 1)
        if real[j - 1] & bit:
            hits[w] += 1
            action = "hit"
        else:
            misses[w] += 1
            action = "miss"
            if snap[j - 1] & bit:
                # Store the content; evict what the snapshot dropped.
                add_real_time(last_change, tau, real_key, cur_h)
                last_change = tau
                new = real[j - 1] = real[j - 1] & snap[j - 1] | bit
                real_cols[j - 1] = tuple(i + 1 for i in range(m) if new >> i & 1)
                real_key = tuple(real_cols)
                pools.clear()
                cur_h = hit_memo.get(real_key)
                if cur_h is None:
                    cur_h = hit_memo[real_key] = real_h(real)
                action = "store"
        if events is not None:
            events.append((tau, i0 + 1, tuple(covering), j, action))

    add_real_time(last_change, horizon, real_key, cur_h)

    # The shared table, or under local scope each segment's row in the table
    # of its lowest-numbered covering station.
    tables = [bs[0] - 1 if core.local else 0 for bs in seg_bs]
    estimator = [
        EstimatorSnapshot(
            i0 + 1, tuple(seg_bs[q]), core.est_counts[tables[q]][q][i0],
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
        hits=hits,
        misses=misses,
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
