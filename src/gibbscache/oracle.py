"""Brute-force ground truth: exhaustive placement optimization, closed-form
bounds on the hit rate, and the independent randomized placement baseline.

The enumeration exists to verify, not to scale; it reads the hit rates of
every configuration from ``gibbs.state_rates``, 8 bytes per state, and
builds the column tuples of the maximizers only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .geometry import CellTopology
from .gibbs import StateKey, state_rates
from .model import ContentCatalog

# Hit rates below the maximum by less than this fraction of it are ties:
# equal sums taken in different orders differ by a few ulps, at any scale.
TIE_RTOL = 1e-13

MIXTURE_GRID = 10_000  # the mixture search tries r = i / MIXTURE_GRID, i = 0..MIXTURE_GRID


@dataclass(frozen=True)
class OptimalityReport:
    """Exhaustive-scan result: all maximizers plus the hit-rate extremes."""

    argmax: tuple[StateKey, ...]
    h_max: float
    h_min: float

    @property
    def delta(self) -> float:
        return self.h_max - self.h_min

    @property
    def unique(self) -> bool:
        return len(self.argmax) == 1


def enumerate_optimal(
    top: CellTopology, cat: ContentCatalog, cache_size: int
) -> OptimalityReport:
    """Scan every feasible placement for the extremes of the hit rate.

    Every state within ``TIE_RTOL`` of the exact maximum is returned, in
    enumeration order; uniqueness is reported, never assumed.
    """
    cands, rates = state_rates(top, cat, cache_size)
    h_max = float(rates.max())
    floor = h_max - TIE_RTOL * abs(h_max)
    best = np.unravel_index(np.flatnonzero(rates >= floor), (len(cands),) * top.n_bs)
    argmax = tuple(tuple(cands[i] for i in key) for key in zip(*(a.tolist() for a in best)))
    return OptimalityReport(argmax, h_max, float(rates.min()))


def hit_rate_bounds(top: CellTopology, cat: ContentCatalog, k: int) -> tuple[float, float]:
    """Closed-form bounds (low <= h_min, h_max <= high): the stations of
    segment s hold between K and min(|s|·K, M) distinct contents, so s earns
    at least the K smallest rates and at most the min(|s|·K, M) largest."""
    lam = sorted(cat.intensities)
    low = high = 0.0  # left folds, the same bits on every Python
    for s, a in top.segment_areas.items():
        low += a * reduce(add, lam[:k], 0.0)
        high += a * reduce(add, lam[-min(len(s) * k, len(lam)):], 0.0)
    return low, high


def independent_hit_rate(top: CellTopology, cat: ContentCatalog, q) -> float:
    """Expected hit rate when station ``j`` stores content ``i`` independently
    with probability ``q[i, j]``."""
    q = np.asarray(q, dtype=float)
    if q.shape != (cat.m_contents, top.n_bs):
        raise ValueError(f"q must be {cat.m_contents} x {top.n_bs}")
    if (q < 0).any() or (q > 1).any():
        raise ValueError("probabilities must lie in [0, 1]")
    lam = cat.intensities
    total = 0.0
    for s, area in top.segment_areas.items():
        cols = [j - 1 for j in s]
        miss = np.prod(1.0 - q[:, cols], axis=1)
        total += area * sum(lam[i] * (1.0 - miss[i]) for i in range(len(lam)))
    return total


def optimize_two_content_mixture(top: CellTopology, cat: ContentCatalog) -> tuple[float, float]:
    """Best single-parameter independent placement for M=2, K=1.

    Every station stores content 1 with probability r and content 2
    otherwise; returns (r*, value) from a grid search over [0, 1].
    """
    if cat.m_contents != 2:
        raise ValueError("two-point mixture baseline is defined for M=2, K=1")
    best_r, best_v = 0.0, -math.inf
    for idx in range(MIXTURE_GRID + 1):
        r = idx / MIXTURE_GRID
        q = np.tile([[r], [1.0 - r]], (1, top.n_bs))
        v = independent_hit_rate(top, cat, q)
        if v > best_v:
            best_r, best_v = r, v
    return best_r, best_v
