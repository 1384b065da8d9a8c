import math

import pytest
from hypothesis import given, settings, strategies as st

import gibbscache as gc


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
