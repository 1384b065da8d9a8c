import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import gibbscache as gc
from gibbscache import geometry


class TestFromSegments:
    def test_two_station_segments(self):
        top = gc.from_segments(2, {(1,): 1, (1, 2): 5, (2,): 4})
        assert top.total_area == 10
        assert top.segment_areas == {
            frozenset({1}): 1,
            frozenset({1, 2}): 5,
            frozenset({2}): 4,
        }

    def test_single_cell(self):
        top = gc.from_segments(1, {(1,): 3})
        assert top.neighbors(1) == {1}
        assert top.total_area == 3

    def test_disjoint_cells(self):
        top = gc.from_segments(2, {(1,): 2, (2,): 2})
        assert top.neighbors(1) == {1}
        assert top.neighbors(2) == {2}

    def test_rejects_bad_bs_index(self):
        with pytest.raises(ValueError):
            gc.from_segments(2, {(1, 3): 1.0})
        # Station counts and ids are integers: 2.0 stations, or a station 1.0
        # that would index a list, are rejected.
        with pytest.raises(ValueError):
            gc.from_segments(2.0, {(1,): 1.0})
        with pytest.raises(ValueError):
            gc.from_segments(2, {(1.0, 2): 1.0})

    def test_rejects_negative_area(self):
        with pytest.raises(ValueError):
            gc.from_segments(1, {(1,): -0.5})

    def test_rejects_empty_subset(self):
        with pytest.raises(ValueError):
            gc.from_segments(1, {(): 1.0})

    def test_segments_in_canonical_order(self):
        areas = {(2, 3): 1.0, (3,): 2.0, (1, 2, 3): 0.5, (1,): 1.5, (1, 3): 0.3, (2,): 0.7}
        top = gc.from_segments(3, areas)
        assert [sorted(s) for s in top.segment_areas] == [
            [1], [2], [3], [1, 3], [2, 3], [1, 2, 3]
        ]

    def test_zero_area_segments_dropped(self):
        top = gc.from_segments(2, {(1,): 1.0, (1, 2): 0.0})
        assert frozenset({1, 2}) not in top.segment_areas
        assert top.neighbors(1) == {1}


class TestFromIntervals:
    def test_two_station_line(self):
        top = gc.from_intervals([(0, 6), (1, 10)])
        assert top.segment_areas == {
            frozenset({1}): 1,
            frozenset({1, 2}): 5,
            frozenset({2}): 4,
        }

    def test_single(self):
        assert gc.from_intervals([(0, 1)]).segment_areas == {frozenset({1}): 1}

    def test_identical_cells(self):
        top = gc.from_intervals([(0, 2), (0, 2)])
        assert top.segment_areas == {frozenset({1, 2}): 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gc.from_intervals([])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            gc.from_intervals([(1, 1)])

    @pytest.mark.parametrize("lo, hi", [(0, math.inf), (-math.inf, 1), (math.nan, 1)])
    def test_non_finite_endpoint_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="interval 1: need finite lo < hi"):
            gc.from_intervals([(0, 2), (lo, hi)])

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(1, 12)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_midpoint_enumeration(self, raw):
        # Independent route: endpoints on an integer grid, classify each
        # unit-length elementary cell by membership tests at its midpoint.
        intervals = [(lo / 2, (lo + width) / 2) for lo, width in raw]
        top = gc.from_intervals(intervals)
        expected: dict[frozenset, float] = {}
        lo_all = min(iv[0] for iv in intervals)
        hi_all = max(iv[1] for iv in intervals)
        x = lo_all
        while x < hi_all - 1e-12:
            mid = x + 0.25
            covering = frozenset(
                j + 1 for j, (a, b) in enumerate(intervals) if a < mid < b
            )
            if covering:
                expected[covering] = expected.get(covering, 0.0) + 0.5
            x += 0.5
        manual = gc.from_segments(len(intervals), expected)
        assert set(top.segment_areas) == set(manual.segment_areas)
        for s in top.segment_areas:
            assert top.segment_areas[s] == pytest.approx(manual.segment_areas[s], abs=1e-12)

    @given(
        st.lists(
            st.tuples(st.floats(0, 50, allow_nan=False), st.floats(0.1, 20)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_total_area_is_union_length(self, raw):
        intervals = [(lo, lo + width) for lo, width in raw]
        top = gc.from_intervals(intervals)
        # Independent interval-merge union length.
        merged = []
        for lo, hi in sorted(intervals):
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        union = sum(hi - lo for lo, hi in merged)
        assert top.total_area == pytest.approx(union, rel=1e-12)


class TestFromDiscs:
    def test_single_disc_area(self):
        top = gc.from_discs([(0.0, 0.0)], [1.0], grid_step=0.01)
        assert top.segment_areas[frozenset({1})] == pytest.approx(math.pi, abs=0.01)

    def test_finer_grid_tightens_area(self):
        # Counting-error is not monotone step to step, so compare a coarse
        # grid against a much finer one.
        errs = []
        for step in (0.2, 0.005):
            top = gc.from_discs([(0.0, 0.0)], [1.0], grid_step=step)
            errs.append(abs(top.segment_areas[frozenset({1})] - math.pi))
        assert errs[1] < errs[0] / 10

    def test_disjoint_discs(self):
        top = gc.from_discs([(0.0, 0.0), (5.0, 0.0)], [1.0, 1.0], grid_step=0.05)
        assert frozenset({1, 2}) not in top.segment_areas
        assert top.neighbors(1) == {1}

    def test_identical_discs(self):
        top = gc.from_discs([(0.0, 0.0), (0.0, 0.0)], [1.0, 1.0], grid_step=0.05)
        assert set(top.segment_areas) == {frozenset({1, 2})}

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gc.from_discs([(0, 0)], [0.0], 0.1)
        with pytest.raises(ValueError):
            gc.from_discs([(0, 0)], [1.0], -1.0)
        with pytest.raises(ValueError):
            gc.from_discs([], [], 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y", "radius", "grid_step"])
    def test_non_finite_rejected(self, where, bad):
        args = {"x": 0.0, "y": 0.0, "radius": 1.0, "grid_step": 0.1}
        args[where] = bad
        with pytest.raises(ValueError, match="finite"):
            gc.from_discs([(args["x"], args["y"])], [args["radius"]], args["grid_step"])

    @pytest.mark.parametrize("step", [1e-308, 1e-6])
    def test_grid_too_fine_rejected(self, step):
        # 1e-308 overflows the point count; 1e-6 would count 4e12 points.
        with pytest.raises(ValueError, match=r"grid_step .* more than 100000000"):
            gc.from_discs([(0.0, 0.0)], [1.0], step)

    @pytest.mark.parametrize("radii", [[1.0, 1.0], [1.0, 8.0], [0.2, 0.3]])
    def test_suggested_step_fits_the_cap(self, radii, monkeypatch):
        monkeypatch.setattr(geometry, "MAX_GRID_POINTS", 1000)
        centers = [(0.0, 0.0), (30.0, 0.0)]
        with pytest.raises(ValueError, match="use a grid_step of at least") as exc:
            gc.from_discs(centers, radii, 0.01)
        fits = float(re.search(r"at least (\S+)$", str(exc.value)).group(1))
        gc.from_discs(centers, radii, fits)

    def test_disc_without_grid_point_rejected(self):
        # No grid center at step 0.1 lies within 0.001 of (0.05, 0): station 2
        # would be in no segment.
        with pytest.raises(ValueError, match=r"disc 2 \(radius 0.001\).*grid_step below 0.001"):
            gc.from_discs([(0.0, 0.0), (0.05, 0.0)], [1.0, 0.001], 0.1)
        # 1e20 +- 1 rounds to 1e20: the grid has no column at all.
        with pytest.raises(ValueError, match=r"disc 1 \(radius 1.0\) covers no grid point"):
            gc.from_discs([(1e20, 0.0)], [1.0], 0.5)


def reference_from_discs(centers, radii, grid_step):
    """The per-point loop that ``from_discs`` vectorises: every grid center
    tested against every disc."""
    xmin = min(c[0] - r for c, r in zip(centers, radii))
    xmax = max(c[0] + r for c, r in zip(centers, radii))
    ymin = min(c[1] - r for c, r in zip(centers, radii))
    ymax = max(c[1] + r for c, r in zip(centers, radii))
    r2 = [r * r for r in radii]
    cell_area = grid_step * grid_step
    counts = {}
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
    return gc.CellTopology(len(centers), areas)


def area_bits(top):
    """The segments in order, each with the bits of its area."""
    return [(s, a.hex()) for s, a in top.segment_areas.items()]


def assert_matches_reference(centers, radii, grid_step):
    got = gc.from_discs(centers, radii, grid_step)
    assert area_bits(got) == area_bits(reference_from_discs(centers, radii, grid_step))


HEX7_CENTERS = [(0.0, 0.0)] + [
    (1.6 * math.cos(math.pi / 3 * k), 1.6 * math.sin(math.pi / 3 * k)) for k in range(6)
]


def many_discs(n=70, seed=70):
    rng = random.Random(seed)
    centers = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]
    return centers, [rng.uniform(0.4, 1.0) for _ in range(n)]


class TestFromDiscsMatchesReference:
    @pytest.mark.parametrize("step", [0.04, 0.05])
    def test_hex7(self, step):
        assert_matches_reference(HEX7_CENTERS, [1.0] * 7, step)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 9)
        centers = [(rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)]
        radii = [rng.uniform(0.3, 1.2) for _ in range(n)]
        # 0.037 and 0.13 do not divide the bounding box.
        assert_matches_reference(centers, radii, rng.choice([0.037, 0.05, 0.1, 0.13, 0.2]))

    def test_identical_and_disjoint_discs(self):
        assert_matches_reference([(0.0, 0.0)] * 3, [1.0] * 3, 0.05)
        assert_matches_reference([(0.0, 0.0), (5.0, 0.0), (0.0, 4.0)], [1.0, 1.5, 0.5], 0.05)

    def test_boundary_point_decided_by_float_pow(self):
        # The grid point (-0.25, cy) lies on disc 2's rim: with glibc's pow,
        # float ** 2 of its x offset exceeds r * r by one ulp while numpy's
        # square of it equals r * r.
        cy = -1 + 10.5 * 0.1
        centers = [(0.0, 0.0), (0.1732340106813079, cy)]
        assert_matches_reference(centers, [1.0, 0.4232340106813079], 0.1)

    @pytest.mark.parametrize("n", [70, 140])
    def test_more_than_64_discs(self, n):
        # Codes of two and three words: disc 65 starts the second word and
        # disc 129 the third.
        centers, radii = many_discs(n)
        top = gc.from_discs(centers, radii, 0.2)
        assert any(max(s) > 64 * (n // 64) for s in top.segment_areas)
        assert_matches_reference(centers, radii, 0.2)

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_leaves_areas_unchanged(self, block, monkeypatch):
        # Blocks smaller than a row split rows; block edges fall anywhere.
        instances = [(HEX7_CENTERS, [1.0] * 7, 0.2), (*many_discs(), 0.3)]
        expect = [area_bits(gc.from_discs(*args)) for args in instances]
        monkeypatch.setattr(geometry, "_BLOCK_POINTS", block)
        assert [area_bits(gc.from_discs(*args)) for args in instances] == expect


class TestNeighbors:
    def test_two_station_overlap(self, line2_topology):
        assert line2_topology.neighbors(1) == {1, 2}
        assert line2_topology.neighbors(2) == {1, 2}

    def test_chain_overlap(self):
        top = gc.from_segments(3, {(1,): 1, (1, 2): 1, (2,): 1, (2, 3): 1, (3,): 1})
        assert top.neighbors(2) == {1, 2, 3}
        assert top.neighbors(1) == {1, 2}

    def test_reflexive(self, line2_topology):
        for j in (1, 2):
            assert j in line2_topology.neighbors(j)

    def test_invalid_bs(self, line2_topology):
        with pytest.raises(ValueError):
            line2_topology.neighbors(3)
        with pytest.raises(ValueError):
            line2_topology.neighbors(0)


class TestSegmentsContaining:
    def test_two_station_line(self, line2_topology):
        got = dict(line2_topology.segments_containing(1))
        assert got == {frozenset({1}): 1, frozenset({1, 2}): 5}
        got = dict(line2_topology.segments_containing(2))
        assert got == {frozenset({1, 2}): 5, frozenset({2}): 4}

    def test_disjoint(self):
        top = gc.from_segments(2, {(1,): 2, (2,): 2})
        assert top.segments_containing(1) == [(frozenset({1}), 2)]

    def test_invalid_bs(self, line2_topology):
        with pytest.raises(ValueError):
            line2_topology.segments_containing(5)
