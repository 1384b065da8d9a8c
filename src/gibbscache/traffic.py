"""Poisson request generation, serving-station selection, and on-line
arrival-rate estimation.

A marked spatial Poisson process restricted to segment identity factorizes
exactly: exponential inter-arrivals at the total rate, content marked by
popularity, segment marked by area share.  Arrival coordinates are never
materialized; every downstream formula consumes segment identity only.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .geometry import CellTopology, Subset
from .model import ContentCatalog, Placement


@dataclass(frozen=True)
class RequestEvent:
    """One content request: arrival time, content id, covering segment."""

    time: float
    content: int
    segment: Subset


def next_request(
    rng: random.Random, top: CellTopology, cat: ContentCatalog, tau_now: float
) -> RequestEvent:
    """Draw the next request after ``tau_now``.

    Inter-arrival ~ Exp(total intensity * total area); content by popularity;
    segment by area share, in the topology's segment order.  Totals are the
    last entries of the running sums that the marks are drawn from.
    """
    if not top.segment_areas:
        raise ValueError("total request rate must be positive")
    cum_lam = list(accumulate(cat.intensities))
    cum_area = list(accumulate(top.segment_areas.values()))
    tau = tau_now + rng.expovariate(cum_lam[-1] * cum_area[-1])
    i0 = bisect_right(cum_lam, rng.random() * cum_lam[-1])
    q = bisect_right(cum_area, rng.random() * cum_area[-1])
    segments = list(top.segment_areas)
    content = min(i0, cat.m_contents - 1) + 1
    return RequestEvent(tau, content, segments[min(q, len(segments) - 1)])


def assign_server(
    req: RequestEvent, R: Placement, rng: random.Random, eta: float = 0.0
) -> int:
    """Pick the serving station for a request.

    Uniform over covering stations holding the content; uniform over all
    covering stations when none holds it, or with exploration probability
    ``eta``.  Takes exactly two draws from ``rng`` for any pool, so that the
    stream does not depend on the caches: ``u1 < eta`` explores, and the
    server is ``pool[int(u2 * len(pool))]``.
    """
    if not (0 <= eta < 1):
        raise ValueError("eta must be in [0, 1)")
    covering = sorted(req.segment)
    explore = rng.random() < eta
    u = rng.random()
    holders = [j for j in covering if R.matrix[req.content - 1, j - 1]]
    pool = covering if explore or not holders else holders
    return pool[int(u * len(pool))]


@dataclass
class RateEstimates:
    """Running estimates of per-(content, segment) arrival rates.

    theta(i, s) = (count(i, s) * scale(s) + c0) / (elapsed + t0); the
    smoothing constants keep every estimate strictly positive so no
    configuration ever gets frozen out of the conditional distribution.
    """

    c0: float = 1.0
    t0: float = 1.0
    counts: dict[tuple[int, Subset], int] = field(default_factory=dict)
    elapsed: float = 0.0
    scales: dict[Subset, float] = field(default_factory=dict)

    def observe(self, req: RequestEvent, tau: float) -> "RateEstimates":
        if tau < self.elapsed:
            raise ValueError(f"time regression: {tau} < {self.elapsed}")
        key = (req.content, req.segment)
        self.counts[key] = self.counts.get(key, 0) + 1
        self.elapsed = tau
        return self

    def theta(self, i: int, s: Subset) -> float:
        scale = self.scales.get(frozenset(s), 1.0)
        count = self.counts.get((i, frozenset(s)), 0)
        return (count * scale + self.c0) / (self.elapsed + self.t0)


def observe(est: RateEstimates, req: RequestEvent, tau: float) -> RateEstimates:
    return est.observe(req, tau)


def estimated_local_energy(
    top: CellTopology, est: RateEstimates, A: Placement, j: int
) -> float:
    """Local energy with true rates lambda_i * |C(s)| replaced by estimates."""
    top._check_bs(j)
    psi = top.neighbors(j)
    mat = A.matrix
    total = 0.0
    for subset, _ in top.segments_containing(j):
        cols = [k - 1 for k in subset]
        counts = mat[:, cols].sum(axis=1)
        for n in psi:
            if n not in subset:
                continue
            for i in range(A.m_contents):
                if mat[i, n - 1]:
                    total += est.theta(i + 1, subset) / max(1, int(counts[i]))
    return total
