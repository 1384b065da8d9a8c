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
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Subset = frozenset[int]

# Practical ceiling on the number of stored positive-area segments, not on the
# number of base stations: realized geometry is what drives iteration cost.
MAX_SEGMENTS = 100_000

# Ceiling on the grid points `from_discs` counts: a few seconds of vectorised
# work at a handful of discs.
MAX_GRID_POINTS = 100_000_000

# Grid points `from_discs` tests per block; its buffers hold one block.
_BLOCK_POINTS = 1 << 14


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
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"interval {idx}: need finite lo < hi, got ({lo}, {hi})")
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
    perimeter).  The grid spans the discs' bounding box and may hold at most
    ``MAX_GRID_POINTS`` points, and every disc must contain a grid point (any
    ``grid_step`` below its radius gives one); otherwise ``ValueError`` names
    ``grid_step`` or the disc.
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
    width, height = xmax - xmin, ymax - ymin
    qx, qy = width / grid_step, height / grid_step
    if not math.isfinite(qx * qy) or math.ceil(qx) * math.ceil(qy) > MAX_GRID_POINTS:
        # The step at which (width/step + 1) * (height/step + 1) == MAX_GRID_POINTS.
        b, m = width + height, MAX_GRID_POINTS - 1
        fits = (b + math.sqrt(b * b + 4 * width * height * m)) / (2 * m)
        raise ValueError(
            f"grid_step {grid_step} gives {qx * qy:.3g} grid points, more than "
            f"{MAX_GRID_POINTS}; use a grid_step of at least {fits * 1.001:.4g}"
        )
    nx, ny = math.ceil(qx), math.ceil(qy)

    # Squared offsets of the grid centers from each disc center, computed by
    # the scalar expressions (x - cx) ** 2 (numpy's square may differ from
    # float ** 2 in the last bit), so membership is decided as by a per-point
    # loop over x, y and the discs.
    xs = [xmin + (ix + 0.5) * grid_step for ix in range(nx)]
    ys = [ymin + (iy + 0.5) * grid_step for iy in range(ny)]
    dx2 = np.array([[(x - cx) ** 2 for x in xs] for cx, _ in centers])
    dy2 = np.array([[(y - cy) ** 2 for y in ys] for _, cy in centers])
    r2 = [r * r for r in radii]

    # Each point's code holds bit j % 64 of word j // 64 iff disc j + 1 covers
    # it.  Blocks of whole rows (or of part of a row, if a row is longer than
    # a block) are tested against every disc in buffers allocated once.
    n = len(centers)
    words = (n + 63) // 64
    cols = max(1, min(ny, _BLOCK_POINTS))
    rows = max(1, _BLOCK_POINTS // cols)
    total = np.empty((rows, cols))
    inside = np.empty((rows, cols), dtype=bool)
    codes = np.empty((words, rows, cols), dtype=np.uint64)
    counts: dict[int, int] = {}
    for r0 in range(0, nx, rows):
        for c0 in range(0, ny, cols):
            r, c = min(rows, nx - r0), min(cols, ny - c0)
            block, t, hit = codes[:, :r, :c], total[:r, :c], inside[:r, :c]
            block.fill(0)
            for j in range(n):
                np.add(dx2[j, r0:r0 + r, None], dy2[j, None, c0:c0 + c], out=t)
                np.less_equal(t, r2[j], out=hit)
                word = block[j // 64]
                np.bitwise_or(word, np.uint64(1 << j % 64), out=word, where=hit)
            for mask, k in _count_codes(block.reshape(words, r * c)):
                counts[mask] = counts.get(mask, 0) + k

    cell_area = grid_step * grid_step
    areas = {
        frozenset(j + 1 for j in range(n) if mask >> j & 1): k * cell_area
        for mask, k in counts.items()
        if mask
    }
    uncovered = sorted(set(range(1, n + 1)).difference(*areas))
    if uncovered:
        j = uncovered[0]
        raise ValueError(
            f"disc {j} (radius {radii[j - 1]}) covers no grid point at grid_step "
            f"{grid_step}; use a grid_step below {radii[j - 1]}"
        )
    return CellTopology(n, areas)


def _count_codes(codes: np.ndarray) -> Iterator[tuple[int, int]]:
    """Distinct columns of a (words, points) ``uint64`` array with their counts.

    Each column is returned as one int, word ``w`` in bits 64w..64w+63.  Words
    after the first are folded into the key one at a time, as the pair (rank
    of the key so far, rank of the word) among the block's distinct values, so
    one 1-D ``np.unique`` counts every column; the distinct values kept at
    each fold unfold the counted keys back into words.
    """
    key, folds = codes[0], []
    for word in codes[1:]:
        seen_keys, key_rank = np.unique(key, return_inverse=True)
        seen_words, word_rank = np.unique(word, return_inverse=True)
        key = key_rank * len(seen_words) + word_rank
        folds.append((seen_keys, seen_words))
    keys, counts = np.unique(key, return_counts=True)
    high = []
    for seen_keys, seen_words in reversed(folds):
        keys, word_rank = np.divmod(keys, len(seen_words))
        high.append(seen_words[word_rank].tolist())
        keys = seen_keys[keys]
    columns = zip(keys.tolist(), *reversed(high))
    masks = [sum(w << 64 * i for i, w in enumerate(column)) for column in columns]
    return zip(masks, counts.tolist())
