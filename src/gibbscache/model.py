"""Content catalog, placement matrices, and the exact hit-rate algebra.

The network-wide hit rate of a placement decomposes per base station and,
further, per coverage segment; the per-station share uses a uniform-serving
denominator ``max(1, number of covering stations storing the content)``.
These exact sums are the energies driving the Gibbs sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import CellTopology, Subset


@dataclass(frozen=True)
class ContentCatalog:
    """Per-content spatial request intensities (requests / unit time / unit area)."""

    intensities: tuple[float, ...]
    total_intensity: float = field(init=False)

    def __post_init__(self):
        lam = tuple(float(x) for x in self.intensities)
        if not lam:
            raise ValueError("catalog must contain at least one content")
        if any(not math.isfinite(x) or x <= 0 for x in lam):
            raise ValueError("all intensities must be finite and > 0")
        object.__setattr__(self, "intensities", lam)
        object.__setattr__(self, "total_intensity", math.fsum(lam))

    @property
    def m_contents(self) -> int:
        return len(self.intensities)

    def popularity(self, i: int) -> float:
        """Probability that a request is for content ``i`` (1-based)."""
        return self.intensities[i - 1] / self.total_intensity


class Placement:
    """M x N binary matrix; column ``j`` is the cache content of station ``j``.

    Feasible placements carry exactly ``cache_size`` ones per column; real
    caches may transiently hold fewer (``strict=False``).
    """

    __slots__ = ("matrix", "cache_size")

    def __init__(self, matrix, cache_size: int, strict: bool = True):
        mat = np.asarray(matrix)
        if mat.ndim != 2:
            raise ValueError("placement matrix must be 2-D")
        # Checked before the cast to int8, which would turn 0.9 into 0 and 1.7
        # into 1.
        if not ((mat == 0) | (mat == 1)).all():
            raise ValueError("placement matrix entries must be 0 or 1")
        mat = mat.astype(np.int8, copy=False)
        m, _ = mat.shape
        if not (1 <= cache_size < m):
            raise ValueError(f"cache size must satisfy 1 <= K < M, got K={cache_size}, M={m}")
        sums = mat.sum(axis=0)
        if strict:
            if not (sums == cache_size).all():
                raise ValueError(f"every column must store exactly K={cache_size} contents")
        elif (sums > cache_size).any():
            raise ValueError(f"no column may store more than K={cache_size} contents")
        self.matrix = mat
        self.cache_size = cache_size

    @property
    def m_contents(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_bs(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def from_columns(
        cls,
        m_contents: int,
        columns: Sequence[Iterable[int]],
        cache_size: int,
        strict: bool = True,
    ) -> "Placement":
        """Build from per-station lists of stored content ids (1-based)."""
        mat = np.zeros((m_contents, len(columns)), dtype=np.int8)
        for j, contents in enumerate(columns):
            for i in contents:
                if not (1 <= i <= m_contents):
                    raise ValueError(f"content id {i} outside 1..{m_contents}")
                mat[i - 1, j] = 1
        return cls(mat, cache_size, strict=strict)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Stored content ids per station, 1-based, sorted."""
        return tuple(
            tuple(int(i) + 1 for i in np.flatnonzero(self.matrix[:, j]))
            for j in range(self.n_bs)
        )

    def with_column(self, j: int, contents: Iterable[int]) -> "Placement":
        """Copy with station ``j`` (1-based) holding exactly ``contents``."""
        mat = self.matrix.copy()
        mat[:, j - 1] = 0
        for i in contents:
            mat[i - 1, j - 1] = 1
        return Placement(mat, self.cache_size)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Placement)
            and self.cache_size == other.cache_size
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self) -> int:
        return hash((self.cache_size, self.matrix.tobytes(), self.matrix.shape))

    def __repr__(self) -> str:
        return f"Placement(columns={self.columns()}, K={self.cache_size})"


def _check_dims(top: CellTopology, cat: ContentCatalog, B: Placement) -> None:
    if B.n_bs != top.n_bs:
        raise ValueError(f"placement has {B.n_bs} columns but topology has {top.n_bs} stations")
    if B.m_contents != cat.m_contents:
        raise ValueError(
            f"placement has {B.m_contents} rows but catalog has {cat.m_contents} contents"
        )


def hit_rate(top: CellTopology, cat: ContentCatalog, B: Placement) -> float:
    """Network-wide expected cache hits per unit time under placement ``B``."""
    _check_dims(top, cat, B)
    lam = cat.intensities
    mat = B.matrix
    total = 0.0
    for subset, area in top.segment_areas.items():
        cols = [j - 1 for j in subset]
        stored = mat[:, cols].max(axis=1)
        seg_rate = sum(lam[i] for i in range(len(lam)) if stored[i])
        total += area * seg_rate
    return total


class UnionRates(dict):
    """Request rate of the contents of a bitmask, memoized: ``rates[union]``,
    bit ``i - 1`` set iff content ``i`` is in the union.

    The one rule for the rate of a union of caches, read by
    :func:`mask_hit_rate` and ``gibbs.state_rates``.  It sums the
    intensities in content order, the sum of :func:`hit_rate`.
    """

    def __init__(self, cat: ContentCatalog):
        self.lam = cat.intensities

    def __missing__(self, union: int) -> float:
        lam = self.lam
        rate = self[union] = sum(lam[i] for i in range(len(lam)) if union >> i & 1)
        return rate


def mask_hit_rate(top: CellTopology, cat: ContentCatalog) -> Callable[[Sequence[int]], float]:
    """Hit rate as a function of per-station content bitmasks.

    ``h(masks)`` takes one int per station, bit ``i - 1`` set iff content
    ``i`` is stored; columns may be under-full.  It adds the same terms in
    the same order as :func:`hit_rate`, so the two agree exactly.  Rates of
    segment unions are memoized inside ``h``.
    """
    rates = UnionRates(cat)
    segments = [([j - 1 for j in s], area) for s, area in top.segment_areas.items()]

    def h(masks: Sequence[int]) -> float:
        total = 0.0
        for cols, area in segments:
            union = 0
            for j in cols:
                union |= masks[j]
            total += area * rates[union]
        return total

    return h


def node_hit_rate(top: CellTopology, cat: ContentCatalog, B: Placement, j: int) -> float:
    """Hit rate seen by station ``j`` under uniform serving among holders."""
    _check_dims(top, cat, B)
    top._check_bs(j)
    lam = cat.intensities
    mat = B.matrix
    total = 0.0
    for subset, area in top.segment_areas.items():
        if j not in subset:
            continue
        cols = [k - 1 for k in subset]
        counts = mat[:, cols].sum(axis=1)
        for i in range(len(lam)):
            if mat[i, j - 1]:
                total += lam[i] * area / max(1, int(counts[i]))
    return total


def segment_node_hit_rate(
    top: CellTopology, cat: ContentCatalog, A: Placement, n: int, s: Subset | Iterable[int]
) -> float:
    """Hit rate seen by station ``n`` from requests arising in segment ``s``.

    Unknown (zero-area) segments contribute zero.
    """
    _check_dims(top, cat, A)
    top._check_bs(n)
    subset = frozenset(s)
    area = top.segment_areas.get(subset, 0.0)
    if area == 0.0 or n not in subset:
        return 0.0
    lam = cat.intensities
    mat = A.matrix
    cols = [k - 1 for k in subset]
    counts = mat[:, cols].sum(axis=1)
    total = 0.0
    for i in range(len(lam)):
        if mat[i, n - 1]:
            total += lam[i] * area / max(1, int(counts[i]))
    return total


def local_energy(top: CellTopology, cat: ContentCatalog, A: Placement, j: int) -> float:
    """Gibbs conditional exponent for station ``j``.

    Sum of per-segment, per-station hit rates restricted to neighbors of
    ``j`` and segments containing ``j``; invariant to columns of stations
    outside the neighbor set.
    """
    _check_dims(top, cat, A)
    top._check_bs(j)
    psi = top.neighbors(j)
    total = 0.0
    for subset, _ in top.segments_containing(j):
        for n in psi:
            total += segment_node_hit_rate(top, cat, A, n, subset)
    return total
