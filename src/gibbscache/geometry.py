"""Coverage geometry of overlapping base-station cells.

Cells are abstracted to a finite measure over coverage segments: for each
non-empty subset ``s`` of base stations, the area of the region covered by
exactly the stations in ``s``.  Every downstream formula consumes only these
segment areas, never cell shapes, so the constructors (explicit segments,
1-D intervals, 2-D discs on a grid) are interchangeable front-ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

Subset = frozenset[int]

# Practical ceiling on the number of stored positive-area segments, not on the
# number of base stations: realized geometry is what drives iteration cost.
MAX_SEGMENTS = 100_000


@dataclass(frozen=True)
class CellTopology:
    """Segment measure of an N-base-station coverage region.

    ``segment_areas`` maps each non-empty subset of station ids (1-based)
    to the area covered by exactly those stations.  Zero-area segments are
    never stored, and segments are kept in the one canonical order, by
    (size, sorted members), that every sum and every segment draw follows.
    Instances are immutable and safe to share.
    """

    n_bs: int
    segment_areas: dict[Subset, float]
    total_area: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.n_bs, int) or self.n_bs < 1:
            raise ValueError(f"need an integer number >= 1 of base stations, got {self.n_bs!r}")
        cleaned: dict[Subset, float] = {}
        order: dict[Subset, tuple[int, list[int]]] = {}
        for subset, area in self.segment_areas.items():
            key = frozenset(subset)
            members = sorted(key)
            if not members:
                raise ValueError("segment subsets must be non-empty")
            if members[0] < 1 or members[-1] > self.n_bs:
                raise ValueError(
                    f"segment {members} references a base station outside 1..{self.n_bs}"
                )
            if not math.isfinite(area) or area < 0:
                raise ValueError(f"segment {members} has invalid area {area}")
            if area > 0:
                cleaned[key] = cleaned.get(key, 0.0) + float(area)
                order[key] = (len(members), members)
        if len(cleaned) > MAX_SEGMENTS:
            raise ValueError(f"more than {MAX_SEGMENTS} positive-area segments")
        # The canonical order: by size, then by sorted members.
        cleaned = {key: cleaned[key] for key in sorted(order, key=order.__getitem__)}
        object.__setattr__(self, "segment_areas", cleaned)
        object.__setattr__(self, "total_area", math.fsum(cleaned.values()))

    def neighbors(self, j: int) -> set[int]:
        """Stations sharing a positive-area segment with station ``j``, plus ``j``."""
        self._check_bs(j)
        out = {j}
        for subset in self.segment_areas:
            if j in subset:
                out |= subset
        return out

    def segments_containing(self, j: int) -> list[tuple[Subset, float]]:
        """Positive-area segments whose covering set includes station ``j``."""
        self._check_bs(j)
        return [(s, a) for s, a in self.segment_areas.items() if j in s]

    def has_exclusive_region(self, j: int) -> bool:
        """True iff station ``j`` covers some region no other station covers."""
        self._check_bs(j)
        return frozenset((j,)) in self.segment_areas

    def _check_bs(self, j: int) -> None:
        if not (1 <= j <= self.n_bs):
            raise ValueError(f"base station id {j} outside 1..{self.n_bs}")


def from_segments(n_bs: int, areas: Mapping[Iterable[int], float]) -> CellTopology:
    """Build a topology directly from a subset -> area map."""
    subsets = {frozenset(k): v for k, v in areas.items()}
    if not all(isinstance(j, int) for s in subsets for j in s):
        raise ValueError("station ids must be integers")
    return CellTopology(n_bs, subsets)


def from_intervals(intervals: Sequence[tuple[float, float]]) -> CellTopology:
    """Exact 1-D topology: station ``j`` covers the ``j``-th interval.

    Segment areas are computed by sorting all endpoints and classifying each
    elementary interval by its covering set.
    """
    if not intervals:
        raise ValueError("need at least one interval")
    for idx, (lo, hi) in enumerate(intervals):
        if not (lo < hi):
            raise ValueError(f"interval {idx}: lo must be < hi, got ({lo}, {hi})")
    points = sorted({p for lo, hi in intervals for p in (lo, hi)})
    areas: dict[Subset, float] = {}
    for lo, hi in zip(points, points[1:]):
        covering = frozenset(
            j + 1 for j, (a, b) in enumerate(intervals) if a <= lo and hi <= b
        )
        if covering:
            areas[covering] = areas.get(covering, 0.0) + (hi - lo)
    return CellTopology(len(intervals), areas)


def from_discs(
    centers: Sequence[tuple[float, float]],
    radii: Sequence[float],
    grid_step: float,
) -> CellTopology:
    """Approximate 2-D topology for disc-shaped cells.

    Areas are estimated by counting square grid cells of side ``grid_step``
    whose centers fall in each segment; the error is O(grid_step * total
    perimeter).
    """
    if len(centers) != len(radii):
        raise ValueError("centers and radii must have the same length")
    if not centers:
        raise ValueError("need at least one disc")
    if not all(map(math.isfinite, [*(x for c in centers for x in c), *radii, grid_step])):
        raise ValueError("centers, radii and grid_step must be finite")
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")

    xmin = min(c[0] - r for c, r in zip(centers, radii))
    xmax = max(c[0] + r for c, r in zip(centers, radii))
    ymin = min(c[1] - r for c, r in zip(centers, radii))
    ymax = max(c[1] + r for c, r in zip(centers, radii))
    r2 = [r * r for r in radii]
    cell_area = grid_step * grid_step
    counts: dict[Subset, int] = {}

    nx = int(math.ceil((xmax - xmin) / grid_step))
    ny = int(math.ceil((ymax - ymin) / grid_step))
    for ix in range(nx):
        x = xmin + (ix + 0.5) * grid_step
        for iy in range(ny):
            y = ymin + (iy + 0.5) * grid_step
            covering = frozenset(
                j + 1
                for j, ((cx, cy), rr2) in enumerate(zip(centers, r2))
                if (x - cx) ** 2 + (y - cy) ** 2 <= rr2
            )
            if covering:
                counts[covering] = counts.get(covering, 0) + 1
    areas = {s: n * cell_area for s, n in counts.items()}
    return CellTopology(len(centers), areas)

