"""Optimized single-site sampler core shared by chain runs and the coupled
simulation.

Keeps one content bitmask per station as its only placement state, which
both evaluations below read.  The local energy is additive over a column's
contents, so the Gibbs conditional over K-subsets is a product-weight
design (conditional Poisson sampling), sampled exactly without enumerating
candidates.  One update of station j computes the gains, O(|segments
containing j| * M), a suffix table of M * K cells, and walks it in O(M), for
any catalog size.  Two evaluations give the same bits.  Up to
``ARRAY_STEP_MK`` (M * K) they are Python float operations, one per gain
term and per cell; above it they are numpy calls, a few per update for the
gains and K for the table, doing the same float operations in the same
order.  Per update on 30 stations in a line at beta = 5: 19.7 µs in Python
at M = 16, K = 3; 24.5 µs with arrays against 27.9 in Python at M = 30,
K = 3; 1.1 ms against 3.4 ms at M = 1000, K = 10.

``advance`` runs a run of slots from draws read ahead.  Where no station
has more than ``BLOCK_CONTEXTS`` contexts (the columns of the stations it
shares a segment with), it runs them as one ``block``: every slot evaluated
for every context of its station at once, in arrays, then resolved in
order (``blocks``); elsewhere one ``step`` per slot.  Both give the same
columns.  The public, readable formulas live in ``model`` and ``gibbs``;
tests assert this core agrees with them exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .blocks import Arrivals, Blocks, _array_table, _gain_rows
from .config import EstimatorConfig
from .geometry import CellTopology
from .gibbs import check_beta
from .model import ContentCatalog
from .realcache import most_popular_columns


# Above this M·K, ``FastCore.step`` evaluates the gains and the suffix table
# with numpy.  Measured per step on 30 stations in a line (each in 2 or 3
# segments), β = 5: the Python path is faster up to M·K = 48 (19.7 against
# 22.2 µs at M = 16, K = 3), the two are about even at 60, and the arrays
# are faster from 80 on (22.1 against 28.1 µs at M = 40, K = 2; 24.5
# against 27.9 µs at M = 30, K = 3; 64 against 118 µs at M = 100, K = 5).
ARRAY_STEP_MK = 60

# ``FastCore.advance`` runs slots in blocks (``blocks.Blocks``) where no
# station has more contexts than this, C(M, K) ** (its neighbours), and the
# catalog has no more columns.  Measured per slot of ``run_chain`` at
# beta0 = 1 annealed, blocks against the ``step`` loop: 1.7 against 6.5 µs
# on line2 (2 contexts); 2.3 against 6.7 on 3 stations in a line at M = 2,
# K = 1 (4); 6.7 against 10.2 on line2 at M = 4, K = 2 (6); 5.9 against 6.3
# at M = 8, K = 1 (8).  At 9 contexts it depends on M: 3.2 against 4.2 on
# 3 stations at M = 3, but 7.9 against 7.2 on line2 at M = 9 and 6.4
# against 5.3 on 30 stations at M = 3; from 10 on the loop wins (12.9
# against 6.7 at 10, 27.9 against 6.2 at 36).
BLOCK_CONTEXTS = 8


def _bits(masks: Sequence[int], m: int) -> np.ndarray:
    """Boolean array of the low ``m`` bits of each mask: one row per mask,
    bit i in column i."""
    width = (m + 7) // 8
    raw = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in masks), np.uint8)
    return np.unpackbits(
        raw.reshape(len(masks), width), axis=1, count=m, bitorder="little"
    ).view(bool)


def _suffix_table(a: list[float], k: int) -> list[list[float]]:
    """Levels ``E[r]``, r <= k, of ``E(s, r) = log e_r(exp(a[s]), ...,
    exp(a[m-1]))``, the log of the elementary symmetric polynomial of degree
    r, kept in log space so that it stays finite at any beta.  Level r lists
    E(s, r) from s = m - r down to 0: ``E[r][m-r-s]``.

    ``E(s, 0) = 0``, ``E(m-r, r) = a[m-r] + E(m-r+1, r-1)`` and, below,
    ``E(s, r) = logaddexp(E(s+1, r), a[s] + E(s+1, r-1))``.
    """
    exp, log1p = math.exp, math.log1p
    m = len(a)
    prev = [0.0] * (m + 1)
    table = [prev]
    for r in range(1, k + 1):
        x = a[m - r] + prev[0]
        row = [x]
        for s in range(m - r - 1, -1, -1):
            y = a[s] + prev[m - r - s]
            x = x + log1p(exp(y - x)) if x > y else y + log1p(exp(x - y))
            row.append(x)
        table.append(row)
        prev = row
    return table


def _lex_sample(a: list[float], k: int, u: float, table: list[list[float]]) -> tuple[int, ...]:
    """K-subset (1-based, sorted) of weight ``exp(sum of a over it)``, drawn
    by inverse CDF at ``u`` in lexicographic order.

    ``table`` is the suffix table E of ``a`` (:func:`_suffix_table`, or
    level 0 and the levels of :func:`_array_table`).  With r contents left to choose, the subsets that
    take s come first, with conditional mass ``p = exp(a[s] + E(s+1, r-1) -
    E(s, r))``, both at index m - r - s of their levels; the uniform is
    rescaled into the chosen block.
    """
    exp = math.exp
    m = len(a)
    chosen = []
    r = k
    for s in range(m):
        # The last r contents are forced.  Rescaling can round u up to 1, so a
        # p of 1, forced or rounded, is taken whatever u is.
        t = m - r - s
        p = 1.0 if t == 0 else exp(a[s] + table[r - 1][t] - table[r][t])
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
    ``estimator`` is None, else ``(count * scale + c0) / (now + t0)`` over the
    arrivals counted by :meth:`record_arrivals`: one table shared network-wide, or
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
        if estimator is not None:  # the tables record_arrivals and theta use
            self.est_counts = [
                [[0] * self.m for _ in self.segments]
                for _ in range(self.n_bs if self.local else 1)
            ]
            self.est_scale = [len(s) / eta if self.local else 1.0 for s, _ in self.segments]
        # Above ARRAY_STEP_MK the gains are arrays, and each station has a
        # plan: its segments and their exact rates.
        self.arrays = self.m * self.k > ARRAY_STEP_MK
        if self.arrays:
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
        n_seg, m = len(self.segments), self.m
        counts = arrivals.count(np.arange(len(self.est_counts) * n_seg * m), stop)
        for cell in np.flatnonzero(counts).tolist():
            table, qi = divmod(cell, n_seg * m)
            self.est_counts[table][qi // m][qi % m] += int(counts[cell])
        arrivals.recorded = stop

    def theta(self, q: int, i0: int, now: float, table: int = 0) -> float:
        """Estimated rate of content ``i0`` (0-based) in segment ``q`` at ``now``."""
        est = self.estimator
        inv = 1.0 / (now + est.t0)
        return (self.est_counts[table][q][i0] * self.est_scale[q] + est.c0) * inv

    # -- Gibbs update ------------------------------------------------------

    def gains(self, j0: int, now: float = 0.0) -> list[float]:
        """Rate ``g[i]`` that content ``i`` (0-based) adds to the local energy
        of station ``j0`` (0-based): the sum of its rates over the segments
        of ``j0`` where no other station stores it.  The local energy of
        column c is ``sum(g[i - 1] for i in c)`` plus a part that does not
        depend on c.
        """
        m = self.m
        masks = self.masks
        g = [0.0] * m
        est = self.estimator
        if est is not None:
            table = self.est_counts[j0 if self.local else 0]
            inv = 1.0 / (now + est.t0)
            c0 = est.c0
        for q, others in self.neighbours[j0]:
            held = 0  # what the other stations of segment q store
            for j in others:
                held |= masks[j]
            if est is None:
                w = self.true_rates[q]
                for i in range(m):
                    if not held >> i & 1:
                        g[i] += w[i]
            else:
                n = table[q]
                scale = self.est_scale[q]
                for i in range(m):
                    if not held >> i & 1:
                        g[i] += (n[i] * scale + c0) * inv
        return g

    def _array_gains(self, j0: int, now: float = 0.0) -> np.ndarray:
        """:meth:`gains` as an array, bit for bit: the rows of the segments'
        rates, zeroed where another station holds the content, added one at
        a time in segment order (x + 0.0 == x for the sums x >= 0 that
        :meth:`gains` leaves where it skips a content)."""
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
        est = self.estimator
        if est is not None:
            table = self.est_counts[j0 if self.local else 0]
            n = np.array([table[q] for q in segs], float)
            w = (n * np.take(self.est_scale, segs)[:, None] + est.c0) * (1.0 / (now + est.t0))
        return _gain_rows(_bits(unions, self.m), w)

    def step(self, j0: int, beta: float, u: float, now: float = 0.0) -> tuple[int, ...]:
        """Resample the column of station ``j0`` by inverse CDF at uniform
        ``u`` over the lexicographic K-subsets; returns the new column.
        """
        if not 0 <= beta < math.inf:  # checked inline: a step runs every slot
            check_beta(beta)
        if self.arrays:
            a = beta * self._array_gains(j0, now)
            table = [[0.0] * (self.m + 1)] + [level.tolist() for level in _array_table(a, self.k)]
            new = _lex_sample(a.tolist(), self.k, u, table)
        else:
            a = [beta * x for x in self.gains(j0, now)]
            new = _lex_sample(a, self.k, u, _suffix_table(a, self.k))
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
