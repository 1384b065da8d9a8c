"""Optimized single-site sampler core shared by chain runs and the coupled
simulation.

Keeps one content bitmask per station as its only derived state.  The local
energy is additive over a column's contents, so the Gibbs conditional over
K-subsets is a product-weight design (conditional Poisson sampling), sampled
exactly without enumerating candidates: one update costs O(|segments
containing j| * M + M * K) for any catalog size.  The public, readable
formulas live in ``model`` and ``gibbs``; tests assert this core agrees with
them exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

from .config import EstimatorConfig
from .geometry import CellTopology
from .gibbs import check_beta
from .model import ContentCatalog
from .realcache import most_popular_columns


def _lex_sample(a: list[float], k: int, u: float) -> tuple[int, ...]:
    """K-subset (1-based, sorted) of weight ``exp(sum of a over it)``, drawn
    by inverse CDF at ``u`` in lexicographic order.

    ``E(s, r) = log e_r(exp(a[s]), ..., exp(a[m-1]))``, kept in log space so
    that it stays finite at any beta.  With r contents left to choose, the
    subsets that take s come first, with conditional mass ``p = exp(a[s] +
    E(s+1, r-1) - E(s, r))``; the uniform is rescaled into the chosen block.
    """
    exp, log1p = math.exp, math.log1p
    m = len(a)
    L = [[0.0]]  # rows from s = m down: L[m - s][r] = E(s, r)
    width = 1  # cells in the last row
    for a_s in reversed(a):
        nxt = L[-1]
        row = [0.0]
        prev = 0.0  # E(s + 1, r - 1), starting from E(s + 1, 0) = 0
        for x in nxt[1:]:
            y = a_s + prev
            row.append(x + log1p(exp(y - x)) if x > y else y + log1p(exp(x - y)))
            prev = x
        if width <= k:  # E(s, r) for r = m - s is new in this row
            row.append(a_s + prev)
            width += 1
        L.append(row)
    chosen = []
    r = k
    for s in range(m):
        # The last r contents are forced; u stays < 1, so a p rounded to 1 is taken.
        p = 1.0 if m - s == r else exp(a[s] + L[m - s - 1][r - 1] - L[m - s][r])
        if u < p:
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
    arrivals fed to :meth:`record_arrival`: one table shared network-wide, or
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
        # Per station: (segment, the other stations covering it, 0-based).
        self.neighbours = [
            [(q, [b - 1 for b in bs if b != j]) for q, bs in enumerate(self.seg_bs) if j in bs]
            for j in range(1, self.n_bs + 1)
        ]
        lam = cat.intensities
        self.true_rates = [
            [lam[i] * area for i in range(self.m)] for area in self.seg_areas
        ]
        self.estimator = estimator
        self.local = estimator is not None and estimator.scope == "local"
        if self.local and eta <= 0:
            raise ValueError("local estimator scope requires eta > 0")
        self.est_counts = [
            [[0] * self.m for _ in self.segments]
            for _ in range(self.n_bs if self.local else 1)
        ]
        self.est_scale = [len(s) / eta if self.local else 1.0 for s, _ in self.segments]
        # Chain state: per station, a sorted 1-based content tuple and its bitmask.
        self._interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.set_columns([most_popular_columns(lam, cache_size)] * self.n_bs)

    # -- placement state ---------------------------------------------------

    def set_columns(self, columns: Sequence[Sequence[int]]) -> None:
        """Install a placement given per-station content ids (1-based)."""
        if len(columns) != self.n_bs:
            raise ValueError("wrong number of columns")
        cols = [tuple(sorted(contents)) for contents in columns]
        for key in cols:
            ok = all(isinstance(i, int) and 1 <= i <= self.m for i in key)
            if not ok or len(key) != self.k or len(set(key)) != self.k:
                raise ValueError(f"column {key} is not a K-subset of the catalog")
        self._key = tuple(cols)  # rebuilt when a column changes
        self.masks = [sum(1 << (i - 1) for i in key) for key in cols]  # bit i - 1: content i

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Current placement as per-station 1-based content tuples."""
        return self._key

    # -- rates -------------------------------------------------------------

    def record_arrival(self, q: int, i0: int, bs0: int, explored: bool) -> None:
        """Count a request for content ``i0`` (0-based) from segment ``q``,
        served by station ``bs0`` (0-based), by exploration or not.

        The shared table counts every request; station ``bs0``'s local table
        counts only the requests it served by exploration.
        """
        if not self.local:
            self.est_counts[0][q][i0] += 1
        elif explored:
            self.est_counts[bs0][q][i0] += 1

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

    def step(self, j0: int, beta: float, u: float, now: float = 0.0) -> tuple[int, ...]:
        """Resample the column of station ``j0`` by inverse CDF at uniform
        ``u`` over the lexicographic K-subsets; returns the new column.
        """
        if not 0 <= beta < math.inf:  # checked inline: a step runs every slot
            check_beta(beta)
        new = _lex_sample([beta * x for x in self.gains(j0, now)], self.k, u)
        key = self._key
        if new != key[j0]:
            # Placement keys that callers keep share one tuple per column.
            new = self._interned.setdefault(new, new)
            self.masks[j0] = sum(1 << (i - 1) for i in new)
            self._key = (*key[:j0], new, *key[j0 + 1:])
        return self._key[j0]
