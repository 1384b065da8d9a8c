"""Optimized single-site sampler core shared by chain runs and the coupled
simulation.

Keeps incremental per-(segment, content) storage counts.  The local energy
is additive over a column's contents, so the Gibbs conditional over K-subsets
is a product-weight design (conditional Poisson sampling), sampled exactly
without enumerating candidates: one update costs O(|segments containing j| *
M + M * K) for any catalog size.  The public, readable formulas live in
``model`` and ``gibbs``; tests assert this core agrees with them exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

from .geometry import CellTopology
from .model import ContentCatalog


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
    for a_s in reversed(a):
        nxt = L[-1]
        row = [0.0]
        for r in range(1, len(nxt)):
            x = nxt[r]
            y = a_s + nxt[r - 1]
            row.append(x + log1p(exp(y - x)) if x > y else y + log1p(exp(x - y)))
        if len(nxt) <= k:
            row.append(a_s + nxt[-1])
        L.append(row)
    chosen = []
    for s in range(m):
        r = k - len(chosen)
        if r == 0:
            break
        # The last r contents are forced; u stays < 1, so a p rounded to 1 is taken.
        p = 1.0 if m - s == r else exp(a[s] + L[m - s - 1][r - 1] - L[m - s][r])
        if u < p:
            chosen.append(s + 1)
            u /= p
        else:
            u = (u - p) / (1.0 - p)
    return tuple(chosen)


class FastCore:
    """Incremental state of the virtual-cache Gibbs chain.

    ``rate_source`` selects exact per-(content, segment) arrival rates
    (lambda_i * area) or on-line estimates fed via :meth:`record_arrival`.
    Estimates can be shared network-wide or kept per station (``local``
    scope, exploration-served requests only, rescaled to stay unbiased).
    """

    def __init__(
        self,
        top: CellTopology,
        cat: ContentCatalog,
        cache_size: int,
        rate_source: str = "exact",
        est_scope: str = "shared",
        est_c0: float = 1.0,
        est_t0: float = 1.0,
        eta: float = 0.0,
    ):
        if rate_source not in ("exact", "estimate"):
            raise ValueError(f"unknown rate_source {rate_source!r}")
        if est_scope not in ("shared", "local"):
            raise ValueError(f"unknown estimator scope {est_scope!r}")
        self.n_bs = top.n_bs
        self.m = cat.m_contents
        self.k = cache_size
        self.segments = list(top.segment_areas.items())  # in the canonical order
        self.seg_areas = [a for _, a in self.segments]
        self.seg_bs = [sorted(s) for s, _ in self.segments]  # 1-based ids
        self.segs_of_bs: list[list[int]] = [[] for _ in range(self.n_bs)]
        for q, (s, _) in enumerate(self.segments):
            for j in s:
                self.segs_of_bs[j - 1].append(q)
        lam = cat.intensities
        self.true_rates = [
            [lam[i] * area for i in range(self.m)] for area in self.seg_areas
        ]
        self.rate_source = rate_source
        self.est_scope = est_scope
        self.est_c0 = est_c0
        self.est_t0 = est_t0
        # Per-(segment, content) observation counts; one table when shared,
        # one per station when local.
        n_tables = 1 if est_scope == "shared" else self.n_bs
        self.est_counts = [
            [[0] * self.m for _ in self.segments] for _ in range(n_tables)
        ]
        # Local tables see only the eta-exploration thinning of the arrival
        # stream; rescale by |s| / eta to keep the estimate unbiased.
        if est_scope == "local":
            if rate_source == "estimate" and eta <= 0:
                raise ValueError("local estimator scope requires eta > 0")
            self.est_scale = [
                len(s) / eta if eta > 0 else 0.0 for s, _ in self.segments
            ]
        else:
            self.est_scale = [1.0] * len(self.segments)
        # Chain state: a sorted 1-based content tuple per station.
        self._interned: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.set_columns([range(1, self.k + 1)] * self.n_bs)

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
        self.col = cols
        self._key = tuple(cols)  # what columns() returns until a column changes
        self._rebuild_counts()

    def _rebuild_counts(self) -> None:
        self.counts = []
        for bs in self.seg_bs:
            cnt = [0] * self.m
            for j in bs:
                for i in self.col[j - 1]:
                    cnt[i - 1] += 1
            self.counts.append(cnt)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Current placement as per-station 1-based content tuples."""
        return self._key

    # -- rates -------------------------------------------------------------

    def seg_rates(self, q: int, table: int, now: float) -> list[float]:
        """Per-content arrival rate (true or estimated) from segment ``q``."""
        if self.rate_source == "exact":
            return self.true_rates[q]
        counts = self.est_counts[table][q]
        scale = self.est_scale[q]
        inv = 1.0 / (now + self.est_t0)
        c0 = self.est_c0
        return [(counts[i] * scale + c0) * inv for i in range(self.m)]

    def record_arrival(self, q: int, i0: int, bs0: int | None = None) -> None:
        """Count one request for content ``i0`` (0-based) from segment ``q``.

        Shared scope counts every arrival; local scope is fed only the
        exploration-served requests of station ``bs0``.
        """
        if self.est_scope == "shared":
            self.est_counts[0][q][i0] += 1
        elif bs0 is not None:
            self.est_counts[bs0][q][i0] += 1

    def theta(self, q: int, i0: int, now: float, table: int = 0) -> float:
        counts = self.est_counts[table][q]
        return (counts[i0] * self.est_scale[q] + self.est_c0) / (now + self.est_t0)

    # -- Gibbs update ------------------------------------------------------

    def energy_split(self, j0: int, now: float = 0.0) -> tuple[float, list[float]]:
        """Local energy of station ``j0`` (0-based) with column c as ``H +
        sum(g[i - 1] for i in c)``: ``g[i]`` is the rate content ``i``
        (0-based) adds where no other station stores it, ``H`` the rest.
        """
        table = 0 if self.est_scope == "shared" else j0
        m = self.m
        own = [0] * m
        for i in self.col[j0]:
            own[i - 1] = 1
        hit = 0.0
        g = [0.0] * m
        for q in self.segs_of_bs[j0]:
            w = self.seg_rates(q, table, now)
            cnt = self.counts[q]
            for i in range(m):
                if cnt[i] > own[i]:
                    hit += w[i]
                else:
                    g[i] += w[i]
        return hit, g

    def step(self, j0: int, beta: float, u: float, now: float = 0.0) -> tuple[int, ...]:
        """Resample the column of station ``j0`` by inverse CDF at uniform
        ``u`` over the lexicographic K-subsets; returns the new column.
        """
        _, g = self.energy_split(j0, now)
        new = _lex_sample([beta * x for x in g], self.k, u)
        old = self.col[j0]
        if new != old:
            # Placement keys that callers keep share one tuple per column.
            new = self._interned.setdefault(new, new)
            for q in self.segs_of_bs[j0]:
                cnt = self.counts[q]
                for i in old:
                    cnt[i - 1] -= 1
                for i in new:
                    cnt[i - 1] += 1
            self.col[j0] = new
            self._key = tuple(self.col)
        return self.col[j0]
