"""Optimized single-site sampler core shared by chain runs and the coupled
simulation.

Keeps one content bitmask per station as its only placement state.  The
local energy is additive over a column's contents, so the Gibbs conditional
over K-subsets is a product-weight design, conditional Poisson sampling
(Chen, Dempster & Liu, "Weighted finite population sampling to maximize
entropy", Biometrika 1994), sampled exactly without enumerating candidates.
One update of station j computes the gains, a running sum of |segments
containing j| rows of M rates, and a suffix table of M * K cells, each in a
few numpy calls, then walks the table in O(M) Python steps, for any catalog
size.  Per update on 30 stations in a line at beta = 2: about 20 µs at M =
16, K = 3, 25 µs at M = 30, K = 3 and 0.8 ms at M = 1000, K = 10.  The same
evaluation in Python floats, one operation per gain term and per cell, is
the tests' reference (``tests/reference_step.py``); the two agree bit for
bit.

``advance`` runs a run of slots from draws read ahead.  Where no station
has more than ``BLOCK_CONTEXTS`` contexts (the columns of the stations it
shares a segment with), it runs them as one ``block``: every slot evaluated
for every context of its station at once, in arrays, then resolved in
order (``blocks``); elsewhere one ``step`` per slot.  Both give the same
columns, which tests pin to the readable formulas of ``model`` and ``gibbs``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .blocks import Arrivals, Blocks, _array_table
from .config import EstimatorConfig
from .geometry import CellTopology
from .gibbs import check_beta
from .model import ContentCatalog
from .realcache import most_popular_columns


# ``FastCore.advance`` runs slots in blocks (``blocks.Blocks``) where no
# station has more contexts than this, C(M, K) ** (its neighbours), and the
# catalog has no more columns.  Measured per slot of ``run_chain`` annealed
# from beta0 = 1 at intensities 0.1 / i, blocks against the ``step`` loop:
# 0.7 against 10.6 µs on line2 (2 contexts); 1.0 against 10.1 on 3 stations
# in a line at M = 2, K = 1 (4); 3.2 against 13.1 on line2 at M = 4, K = 2
# (6); 4.1 against 10.9 at M = 8, K = 1 (8); 2.0-5.0 against 10.3-11.2 at 9;
# 4.7-5.5 against 10.4-13.3 at 10; 6.9-8.0 against 10.3-11.4 at 12.  At 13
# to 15 the margin shrinks to the host's noise (the loop won once at 15),
# and from 16 on it depends on M (12.4 against 11.2 on line2 at M = 16).
BLOCK_CONTEXTS = 12


def _bits(masks: Sequence[int], m: int) -> np.ndarray:
    """Boolean array of the low ``m`` bits of each mask: one row per mask,
    bit i in column i.  The masks, none wider than ``m`` bits, are joined
    into one integer, the first lowest, and unpacked in one call."""
    joined = 0
    for x in reversed(masks):
        joined = joined << m | x
    n = len(masks) * m
    raw = np.frombuffer(joined.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, count=n, bitorder="little").view(bool).reshape(len(masks), m)


def _gain_rows(held: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The segments' rates ``w``, zeroed where ``held``, added in segment
    order (axis -2) by a running sum; np.sum's order is unspecified."""
    return np.add.accumulate(np.where(held, 0.0, w), -2)[..., -1, :]


def _lex_sample(a: list[float], k: int, u: float, levels: list[list[float]]) -> tuple[int, ...]:
    """K-subset (1-based, sorted) of weight ``exp(sum of a over it)``, drawn
    by inverse CDF at ``u`` in lexicographic order.

    ``levels`` are the suffix table of ``a`` from :func:`blocks._array_table`:
    level r, ``levels[r - 1]``, lists E(s, r) from s = m - r down to 0, and
    E(s, 0) = 0.  With r contents left to choose, the subsets that take s
    come first, with conditional mass ``p = exp(a[s] + E(s+1, r-1) - E(s,
    r))``, both at index m - r - s of their levels; the uniform is rescaled
    into the chosen block.
    """
    exp = math.exp
    m = len(a)
    chosen = []
    r = k
    for s in range(m):
        # The last r contents are forced.  Rescaling can round u up to 1, so a
        # p of 1, forced or rounded, is taken whatever u is.
        t = m - r - s
        below = levels[r - 2][t] if r > 1 else 0.0  # E(s+1, r-1)
        p = 1.0 if t == 0 else exp(a[s] + below - levels[r - 1][t])
        if u < p or p == 1.0:
            chosen.append(s + 1)
            r -= 1
            if r == 0:
                break
            u /= p
        else:
            u = (u - p) / (1.0 - p)
    return tuple(chosen)


class FastCore:
    """Incremental state of the virtual-cache Gibbs chain.

    Per-(content, segment) arrival rates are exact (lambda_i * area) when
    ``estimator`` is None, else ``(count * scale + c0) / (now + t0)``
    (:meth:`rate`) over the arrivals counted by :meth:`record_arrivals`, in
    ``est_counts`` (table, segment, content): one table shared network-wide, or
    one per station under ``local`` scope, fed by the requests it served by
    exploration and scaled by |s| / eta to stay unbiased.
    """

    def __init__(
        self,
        top: CellTopology,
        cat: ContentCatalog,
        cache_size: int,
        estimator: EstimatorConfig | None = None,
        eta: float = 0.0,
    ):
        self.n_bs = top.n_bs
        self.m = cat.m_contents
        self.k = cache_size
        self.segments = list(top.segment_areas.items())  # in the canonical order
        self.seg_areas = [a for _, a in self.segments]
        self.seg_bs = [sorted(s) for s, _ in self.segments]  # 1-based ids
        # Per station, in segment order: (segment, the other stations
        # covering it, 0-based).
        self.neighbours = [[] for _ in range(self.n_bs)]
        for q, bs in enumerate(self.seg_bs):
            for j in bs:
                self.neighbours[j - 1].append((q, [b - 1 for b in bs if b != j]))
        lam = cat.intensities
        rates = np.multiply.outer(self.seg_areas, lam)
        self.true_rates = rates.tolist()
        self.estimator = estimator
        self.local = estimator is not None and estimator.scope == "local"
        if self.local and eta <= 0:
            raise ValueError("local estimator scope requires eta > 0")
        if estimator is not None:  # the tables record_arrivals and rate use
            tables = self.n_bs if self.local else 1
            self.est_counts = np.zeros((tables, len(self.segments), self.m), np.int64)
            self.est_scale = np.array([len(s) / eta if self.local else 1.0 for s in self.seg_bs])
        # Each station's plan: its segments and their exact rates.
        self._plans = []
        for nb in self.neighbours:
            segs = np.array([q for q, _ in nb], np.intp)
            self._plans.append((segs, rates[segs]))
        # Below BLOCK_CONTEXTS, slots run in blocks, planned on first use.
        cols = math.comb(self.m, self.k)
        self.blocks = cols <= BLOCK_CONTEXTS and all(
            cols ** len({o for _, others in nb for o in others}) <= BLOCK_CONTEXTS
            for nb in self.neighbours
        )
        self._block_plan = None
        # Chain state: per station, a sorted 1-based content tuple and its bitmask.
        self._interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.set_columns([most_popular_columns(lam, cache_size)] * self.n_bs)

    # -- placement state ---------------------------------------------------

    def set_columns(self, columns: Sequence[Sequence[int]]) -> None:
        """Install a placement given per-station content ids (1-based)."""
        if len(columns) != self.n_bs:
            raise ValueError("wrong number of columns")
        cols = [tuple(sorted(contents)) for contents in columns]
        mask_of = {}  # each distinct column checked once
        for key in cols:
            if key not in mask_of:
                ok = all(isinstance(i, int) and 1 <= i <= self.m for i in key)
                if not ok or len(key) != self.k or len(set(key)) != self.k:
                    raise ValueError(f"column {key} is not a K-subset of the catalog")
                mask_of[key] = sum(1 << (i - 1) for i in key)  # bit i - 1: content i
        self._key = tuple(cols)  # rebuilt when a column changes
        self.masks = [mask_of[key] for key in cols]

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Current placement as per-station 1-based content tuples."""
        return self._key

    # -- rates -------------------------------------------------------------

    def arrivals(self, q, i0, bs0, explored) -> Arrivals:
        """Requests, in arrival order, for content ``i0`` (0-based) from
        segment ``q``, served by station ``bs0`` (0-based), by exploration or
        not (arrays), each with the cell that counts it: (table, segment,
        content) numbered in the order of ``est_counts`` flattened, or -1.

        The shared table counts every request; station ``bs0``'s local table
        counts only the requests it served by exploration.
        """
        cells = np.asarray(q) * self.m + i0
        if self.local:
            cells = np.where(explored, np.asarray(bs0) * (len(self.segments) * self.m) + cells, -1)
        return Arrivals(cells)

    def record_arrivals(self, arrivals: Arrivals, stop: int) -> None:
        """Count the requests of ``arrivals`` up to position ``stop``."""
        cells = np.arange(self.est_counts.size).reshape(self.est_counts.shape)
        self.est_counts += arrivals.before(cells, stop) - arrivals.before(cells, arrivals.recorded)
        arrivals.recorded = stop

    def rate(self, counts, q, now):
        """Estimated rate ``(count * scale + c0) / (now + t0)`` of ``counts``
        arrivals in segment ``q`` at ``now``, as ``(count * scale + c0) * (1 /
        (now + t0))``; arrays broadcast, one operation per cell."""
        est = self.estimator
        return (counts * self.est_scale[q] + est.c0) * (1.0 / (now + est.t0))

    def theta(self, q: int, i0: int, now: float, table: int = 0) -> float:
        """Estimated rate of content ``i0`` (0-based) in segment ``q`` at ``now``."""
        return float(self.rate(self.est_counts[table, q, i0], q, now))

    # -- Gibbs update ------------------------------------------------------

    def _array_gains(self, j0: int, now: float = 0.0) -> np.ndarray:
        """Rate ``g[i]`` that content ``i`` (0-based) adds to the local energy
        of station ``j0`` (0-based): the sum of its rates over the segments
        of ``j0`` where no other station stores it, added one at a time in
        segment order (:func:`_gain_rows`).  The local energy of column c
        is ``sum(g[i - 1] for i in c)`` plus a part that does not depend on
        c."""
        segs, w = self._plans[j0]
        if not len(segs):  # a station that covers no area
            return np.zeros(self.m)
        masks = self.masks
        unions = []  # per segment, what its other stations store
        for _, others in self.neighbours[j0]:
            held = 0
            for j in others:
                held |= masks[j]
            unions.append(held)
        if self.estimator is not None:
            counts = self.est_counts[j0 if self.local else 0].take(segs, 0)
            w = self.rate(counts, segs[:, None], now)
        return _gain_rows(_bits(unions, self.m), w)

    def step(self, j0: int, beta: float, u: float, now: float = 0.0) -> tuple[int, ...]:
        """Resample the column of station ``j0`` by inverse CDF at uniform
        ``u`` over the lexicographic K-subsets; returns the new column.
        """
        if not 0 <= beta < math.inf:  # checked inline: a step runs every slot
            check_beta(beta)
        a = beta * self._array_gains(j0, now)
        levels = [level.tolist() for level in _array_table(a, self.k)]
        new = _lex_sample(a.tolist(), self.k, u, levels)
        key = self._key
        if new != key[j0]:
            # Configuration keys that callers keep share one tuple per column.
            new = self._interned.setdefault(new, new)
            self.masks[j0] = sum(1 << (i - 1) for i in new)
            self._key = (*key[:j0], new, *key[j0 + 1:])
        return self._key[j0]

    def advance(self, stations, betas, uniforms, now=None, arrivals=None, fed=None) -> list:
        """Run one update per slot t: station ``stations[t]`` (0-based) at
        ``betas[t]`` and ``uniforms[t]``, at time ``now[t]``; returns the
        configuration after each slot.  With an estimator, slot t sees the
        requests of ``arrivals`` before position ``fed[t]``, which are
        recorded.  Where no station has more than ``BLOCK_CONTEXTS``
        contexts (``blocks``), the slots run as one :meth:`block`, else one
        :meth:`step` each."""
        if self.blocks:
            return self.block(stations, betas, uniforms, now, arrivals, fed)
        keys = []
        times = [0.0] * len(stations) if now is None else now.tolist()
        for t, (j0, beta, u) in enumerate(zip(stations.tolist(), betas.tolist(), uniforms.tolist())):
            if arrivals is not None and fed[t] > arrivals.recorded:
                self.record_arrivals(arrivals, fed[t])
            self.step(j0, beta, u, times[t])
            keys.append(self._key)
        return keys

    def block(self, stations, betas, uniforms, now=None, arrivals=None, fed=None) -> list:
        """:meth:`advance` in one block (``blocks.Blocks``): every slot is
        evaluated for every context of its station, then resolved in order.
        The columns equal those of :meth:`step`, bit for bit."""
        if not (0 <= betas.min() and betas.max() < math.inf):  # nan fails too
            for beta in betas.tolist():
                check_beta(beta)
        if self._block_plan is None:
            self._block_plan = Blocks(self)
        keys, ranks = self._block_plan.run(self, stations, betas, uniforms, now, arrivals, fed)
        if arrivals is not None:
            self.record_arrivals(arrivals, fed[-1])
        self._key = keys[-1]
        self.masks = [self._block_plan.col_masks[r] for r in ranks]
        return keys
