"""Arrival-driven real-cache update against a periodically refreshed virtual
snapshot.

Real caches change only when a request arrives: a miss-with-store installs
the content if the reference virtual snapshot holds it, evicting every
content the snapshot no longer lists.  Snapshots refresh at the growing
epoch boundaries S_l = T_1 + ... + T_l, so the fraction of each epoch spent
re-synchronizing vanishes as epochs lengthen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate, count, islice
from typing import Iterator

from .model import Placement
from .traffic import RequestEvent


@dataclass(frozen=True)
class SnapshotSchedule:
    """Epoch durations T_k and their prefix sums S_l.

    ``linear`` growth T_k = t1 * k (default) or ``geometric``
    T_k = t1 * ratio**(k-1); both satisfy T_k -> infinity.
    """

    kind: str = "linear"
    t1: float = 10.0
    ratio: float = 2.0

    def __post_init__(self):
        if self.kind not in ("linear", "geometric"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.t1 <= 0:
            raise ValueError("t1 must be positive")
        if self.kind == "geometric" and self.ratio <= 1:
            raise ValueError("geometric growth needs ratio > 1")

    def duration(self, k: int) -> float:
        """T_k for k >= 1."""
        if k < 1:
            raise ValueError("epoch index starts at 1")
        if self.kind == "linear":
            return self.t1 * k
        return self.t1 * self.ratio ** (k - 1)

    def boundaries(self) -> Iterator[float]:
        """S_0 = 0, S_1, S_2, ...: the durations summed in order."""
        return accumulate(map(self.duration, count(1)), initial=0.0)

    def boundary(self, l: int) -> float:
        """S_l = T_1 + ... + T_l (S_0 = 0)."""
        return next(islice(self.boundaries(), l, None))

    def kappa_zeta(self, tau: float) -> tuple[int, float]:
        """Largest l with S_l <= tau, and that boundary (0 if none)."""
        if tau < 0:
            raise ValueError("tau must be >= 0")
        for l, s in enumerate(self.boundaries()):
            if s > tau:
                return l - 1, zeta
            zeta = s


@dataclass(frozen=True)
class RealState:
    """Serving caches and their reference virtual snapshot.

    Real columns may transiently hold fewer than K contents right after a
    snapshot change evicts more than one stale content.
    """

    placement: Placement
    snapshot: Placement
    snapshot_time: float = 0.0


def on_request(real: RealState, req: RequestEvent, serving_bs: int) -> tuple[bool, RealState]:
    """Serve one request at ``serving_bs`` and apply the miss-store rule.

    On a miss the content is stored iff the snapshot lists it for that
    station; storing evicts every cached content the snapshot omits.
    """
    i = req.content - 1
    j = serving_bs - 1
    mat = real.placement.matrix
    snap = real.snapshot.matrix
    if mat[i, j]:
        return True, real
    if not snap[i, j]:
        return False, real
    new = mat.copy()
    stale = (snap[:, j] == 0) & (new[:, j] == 1)
    new[stale, j] = 0
    new[i, j] = 1
    placement = Placement(new, real.placement.cache_size, strict=False)
    return False, replace(real, placement=placement)


def refresh_snapshot(
    real: RealState, virtual: Placement, tau: float, sched: SnapshotSchedule
) -> RealState:
    """Adopt the virtual configuration as snapshot if an epoch boundary has
    been crossed since the last refresh; identity otherwise.

    When several boundaries fall in one gap only the latest matters, since
    the reference is always the snapshot at S_kappa(tau).
    """
    _, zeta = sched.kappa_zeta(tau)
    if zeta > real.snapshot_time:
        return replace(real, snapshot=virtual, snapshot_time=zeta)
    return real


def most_popular_columns(intensities: tuple[float, ...], cache_size: int) -> tuple[int, ...]:
    """Content ids of the K most popular contents, ties to the lower id."""
    order = sorted(range(len(intensities)), key=lambda i: (-intensities[i], i))
    return tuple(sorted(i + 1 for i in order[:cache_size]))
