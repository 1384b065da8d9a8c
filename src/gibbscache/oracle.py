"""Brute-force ground truth: exhaustive placement optimization and the two
reference baselines (most-popular and independent randomized placement).

The enumeration exists to verify, not to scale; it streams configurations
in mixed-radix order over per-station K-subset indices and keeps O(1) state
beyond the running extremes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import CellTopology
from .gibbs import StateKey, state_masks
from .model import ContentCatalog, Placement, mask_hit_rate
from .realcache import most_popular_columns

# Hit rates that differ by less than this fraction of the maximum are ties:
# equal sums taken in different orders differ by a few ulps, at any scale.
TIE_RTOL = 1e-13


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

    Ties in the maximum are all returned; uniqueness is reported, never
    assumed.
    """
    cands, masks = state_masks(cat.m_contents, top.n_bs, cache_size)
    column_of = dict(zip(masks, cands))
    h_of = mask_hit_rate(top, cat)
    best: list[StateKey] = []
    h_max = -math.inf
    h_min = math.inf
    tol = 0.0  # tie tolerance, relative to the running maximum
    for config in itertools.product(masks, repeat=top.n_bs):
        h = h_of(config)
        if h > h_max + tol:
            h_max = h
            tol = TIE_RTOL * abs(h)
            best = [tuple(column_of[x] for x in config)]
        elif h >= h_max - tol:
            best.append(tuple(column_of[x] for x in config))
        if h < h_min:
            h_min = h
    return OptimalityReport(tuple(best), h_max, h_min)


def most_popular_placement(cat: ContentCatalog, n_bs: int, cache_size: int) -> Placement:
    """Every station caches the K most popular contents (ties to lower id)."""
    col = most_popular_columns(cat.intensities, cache_size)
    return Placement.from_columns(cat.m_contents, [col] * n_bs, cache_size)


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


def optimize_two_content_mixture(
    top: CellTopology, cat: ContentCatalog, step: float = 1e-4
) -> tuple[float, float]:
    """Best single-parameter independent placement for M=2, K=1.

    Every station stores content 1 with probability r and content 2
    otherwise; returns (r*, value) from a grid search over [0, 1].
    """
    if cat.m_contents != 2:
        raise ValueError("two-point mixture baseline is defined for M=2, K=1")
    best_r, best_v = 0.0, -math.inf
    n = round(1.0 / step)
    for idx in range(n + 1):
        r = idx / n
        q = np.tile([[r], [1.0 - r]], (1, top.n_bs))
        v = independent_hit_rate(top, cat, q)
        if v > best_v:
            best_r, best_v = r, v
    return best_r, best_v
