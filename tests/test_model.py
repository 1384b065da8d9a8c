import math
import random

import numpy as np
import pytest

import gibbscache as gc
from conftest import random_instance, random_placement

# Network hit rates of all four configurations of the two-station line
# instance, computed by hand from the segment areas {1}:1, {1,2}:5, {2}:4
# and intensities 0.055 / 0.045.
LINE2_HIT_RATES = {
    ((1,), (1,)): 0.55,
    ((1,), (2,)): 0.735,
    ((2,), (1,)): 0.765,
    ((2,), (2,)): 0.45,
}


class TestContentCatalog:
    def test_popularity(self, line2_catalog):
        assert line2_catalog.popularity(1) == pytest.approx(0.55)
        assert line2_catalog.popularity(2) == pytest.approx(0.45)
        assert line2_catalog.total_intensity == pytest.approx(0.1)
        assert line2_catalog.m_contents == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gc.ContentCatalog(())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gc.ContentCatalog((0.1, 0.0))
        with pytest.raises(ValueError):
            gc.ContentCatalog((-1.0,))
        with pytest.raises(ValueError):
            gc.ContentCatalog((float("nan"), 1.0))


class TestPlacement:
    def test_from_columns_roundtrip(self):
        B = gc.Placement.from_columns(4, [(1, 3), (2, 4)], 2)
        assert B.columns() == ((1, 3), (2, 4))
        assert B.m_contents == 4 and B.n_bs == 2

    def test_strict_column_sums(self):
        with pytest.raises(ValueError):
            gc.Placement.from_columns(3, [(1, 2), (1,)], 2)

    def test_relaxed_allows_underfull(self):
        B = gc.Placement.from_columns(3, [(1, 2), (1,)], 2, strict=False)
        assert B.columns() == ((1, 2), (1,))

    def test_relaxed_still_caps_at_k(self):
        with pytest.raises(ValueError):
            gc.Placement.from_columns(3, [(1, 2), (1,)], 1, strict=False)

    def test_entries_binary(self):
        with pytest.raises(ValueError):
            gc.Placement([[2, 0], [0, 1]], 1)

    @pytest.mark.parametrize(
        "matrix",
        [
            [[0.9, 1], [1.7, 0]],  # fractional: the int8 cast would give 0/1
            [[-1, 1], [1, 0]],
            np.array([[-1, 1], [1, 0]], dtype=np.int8),
            np.array([[2, 0], [0, 1]], dtype=np.int8),
            [[0.0, 1.0], [1.0, 1e-9]],
        ],
    )
    def test_rejects_non_binary_entries(self, matrix):
        with pytest.raises(ValueError, match="0 or 1"):
            gc.Placement(matrix, 1, strict=False)

    def test_accepts_binary_float_and_bool(self):
        for matrix in ([[0.0, 1.0], [1.0, 0.0]], np.array([[False, True], [True, False]])):
            B = gc.Placement(matrix, 1)
            assert B.matrix.dtype == np.int8
            assert B.columns() == ((2,), (1,))

    def test_cache_size_bounds(self):
        with pytest.raises(ValueError):
            gc.Placement.from_columns(2, [(1, 2)], 2)  # K must be < M
        with pytest.raises(ValueError):
            gc.Placement([[1], [0]], 0)

    def test_with_column(self):
        B = gc.Placement.from_columns(3, [(1,), (2,)], 1)
        B2 = B.with_column(1, (3,))
        assert B2.columns() == ((3,), (2,))
        assert B.columns() == ((1,), (2,))  # original untouched

    def test_json_roundtrip(self):
        B = gc.Placement.from_columns(3, [(1, 3), (2, 3)], 2)
        assert gc.Placement.from_json(B.to_json()) == B

    def test_eq_hash(self):
        a = gc.Placement.from_columns(3, [(1,), (2,)], 1)
        b = gc.Placement.from_columns(3, [(1,), (2,)], 1)
        c = gc.Placement.from_columns(3, [(2,), (2,)], 1)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestHitRate:
    def test_line_instance_values(self, line2_topology, line2_catalog):
        for cols, expected in LINE2_HIT_RATES.items():
            B = gc.Placement.from_columns(2, cols, 1)
            assert gc.hit_rate(line2_topology, line2_catalog, B) == pytest.approx(
                expected, abs=1e-12
            )

    def test_node_hit_rates_line_instance(self, line2_topology, line2_catalog):
        # Best configuration: station 1 holds content 2, station 2 content 1.
        B = gc.Placement.from_columns(2, [(2,), (1,)], 1)
        h1 = gc.node_hit_rate(line2_topology, line2_catalog, B, 1)
        h2 = gc.node_hit_rate(line2_topology, line2_catalog, B, 2)
        assert h1 == pytest.approx(0.27, abs=1e-12)
        assert h2 == pytest.approx(0.495, abs=1e-12)

    def test_duplicate_storage_splits_credit(self, line2_topology, line2_catalog):
        B = gc.Placement.from_columns(2, [(1,), (1,)], 1)
        # In the shared segment both stations hold content 1, so each gets
        # half of the 5 * 0.055 segment rate.
        h1 = gc.node_hit_rate(line2_topology, line2_catalog, B, 1)
        assert h1 == pytest.approx(1 * 0.055 + 5 * 0.055 / 2, abs=1e-12)

    def test_dimension_mismatch(self, line2_topology, line2_catalog):
        B = gc.Placement.from_columns(2, [(1,)], 1)
        with pytest.raises(ValueError):
            gc.hit_rate(line2_topology, line2_catalog, B)

    def test_network_rate_decomposes_over_stations(self):
        rng = random.Random(101)
        for _ in range(40):
            top, cat, k = random_instance(rng)
            B = random_placement(rng, cat.m_contents, top.n_bs, k)
            total = gc.hit_rate(top, cat, B)
            per_node = sum(
                gc.node_hit_rate(top, cat, B, j) for j in range(1, top.n_bs + 1)
            )
            assert total == pytest.approx(per_node, abs=1e-12)

    def test_node_rate_decomposes_over_segments(self):
        rng = random.Random(202)
        for _ in range(40):
            top, cat, k = random_instance(rng)
            B = random_placement(rng, cat.m_contents, top.n_bs, k)
            for j in range(1, top.n_bs + 1):
                direct = gc.node_hit_rate(top, cat, B, j)
                by_seg = sum(
                    gc.segment_node_hit_rate(top, cat, B, j, s)
                    for s in top.segment_areas
                )
                assert direct == pytest.approx(by_seg, abs=1e-12)

    def test_bitmask_rule_equals_hit_rate(self):
        # Same terms in the same order: exact equality, full or under-full
        # columns alike.
        rng = random.Random(606)
        for _ in range(2000):
            top, cat, k = random_instance(rng, max_n=4, max_m=6, max_k=3)
            m = cat.m_contents
            cols = [rng.sample(range(1, m + 1), rng.randint(0, k)) for _ in range(top.n_bs)]
            B = gc.Placement.from_columns(m, cols, k, strict=False)
            masks = [sum(1 << (i - 1) for i in col) for col in cols]
            assert gc.mask_hit_rate(top, cat)(masks) == gc.hit_rate(top, cat, B)

    def test_hit_rate_below_total_traffic(self):
        rng = random.Random(303)
        for _ in range(30):
            top, cat, k = random_instance(rng)
            B = random_placement(rng, cat.m_contents, top.n_bs, k)
            assert 0 <= gc.hit_rate(top, cat, B) <= cat.total_intensity * top.total_area + 1e-12


class TestSegmentNodeHitRate:
    def test_unknown_segment_is_zero(self, line2_topology, line2_catalog):
        B = gc.Placement.from_columns(2, [(1,), (2,)], 1)
        assert gc.segment_node_hit_rate(line2_topology, line2_catalog, B, 1, {2}) == 0.0

    def test_station_outside_segment_is_zero(self, line2_topology, line2_catalog):
        B = gc.Placement.from_columns(2, [(1,), (2,)], 1)
        assert gc.segment_node_hit_rate(line2_topology, line2_catalog, B, 2, {1}) == 0.0

    def test_exclusive_segment(self, line2_topology, line2_catalog):
        B = gc.Placement.from_columns(2, [(1,), (2,)], 1)
        got = gc.segment_node_hit_rate(line2_topology, line2_catalog, B, 2, {2})
        assert got == pytest.approx(4 * 0.045, abs=1e-12)


class TestLocalEnergy:
    def test_line_instance_candidates(self, line2_topology, line2_catalog):
        # Station 2 fixed at content 1; energies of station 1's two choices.
        expect = {(1,): 0.33, (2,): 0.545}
        for col, e in expect.items():
            B = gc.Placement.from_columns(2, [col, (1,)], 1)
            got = gc.local_energy(line2_topology, line2_catalog, B, 1)
            assert got == pytest.approx(e, abs=1e-12)

    def test_invariant_to_far_stations(self):
        # Three stations in a chain; station 3 never neighbors station 1, so
        # its column cannot move station 1's energy.
        top = gc.from_segments(
            3, {(1,): 1.0, (1, 2): 0.8, (2,): 0.5, (2, 3): 1.2, (3,): 0.7}
        )
        cat = gc.ContentCatalog((0.3, 0.2, 0.1))
        for c1 in ((1,), (2,), (3,)):
            base = gc.Placement.from_columns(3, [c1, (2,), (1,)], 1)
            e = gc.local_energy(top, cat, base, 1)
            for c3 in ((1,), (2,), (3,)):
                moved = base.with_column(3, c3)
                assert gc.local_energy(top, cat, moved, 1) == pytest.approx(e, abs=1e-14)

    def test_matches_neighbor_segment_sum(self):
        rng = random.Random(404)
        for _ in range(40):
            top, cat, k = random_instance(rng)
            B = random_placement(rng, cat.m_contents, top.n_bs, k)
            for j in range(1, top.n_bs + 1):
                direct = gc.local_energy(top, cat, B, j)
                manual = 0.0
                for s, _ in top.segments_containing(j):
                    for n in top.neighbors(j):
                        manual += gc.segment_node_hit_rate(top, cat, B, n, s)
                assert direct == pytest.approx(manual, abs=1e-12)

    def test_indicator_form(self):
        # The neighbor/segment double sum telescopes: each segment containing
        # j contributes area * sum of intensities of contents stored anywhere
        # in that segment.
        rng = random.Random(505)
        for _ in range(40):
            top, cat, k = random_instance(rng)
            B = random_placement(rng, cat.m_contents, top.n_bs, k)
            lam = cat.intensities
            for j in range(1, top.n_bs + 1):
                manual = 0.0
                for s, area in top.segments_containing(j):
                    stored = set()
                    for n in s:
                        stored.update(B.columns()[n - 1])
                    manual += area * sum(lam[i - 1] for i in stored)
                assert gc.local_energy(top, cat, B, j) == pytest.approx(
                    manual, abs=1e-12
                )
