import math
from itertools import islice

import pytest

import gibbscache as gc
from gibbscache.realcache import most_popular_columns
from gibbscache.traffic import RequestEvent


def _real(cols, snap_cols, m=3, k=1, snap_time=0.0):
    return gc.RealState(
        placement=gc.Placement.from_columns(m, cols, k, strict=False),
        snapshot=gc.Placement.from_columns(m, snap_cols, k),
        snapshot_time=snap_time,
    )


class TestSnapshotSchedule:
    def test_linear_durations_and_boundaries(self):
        sched = gc.SnapshotSchedule("linear", t1=10.0)
        assert [sched.duration(k) for k in (1, 2, 3)] == [10.0, 20.0, 30.0]
        assert list(islice(sched.boundaries(), 5)) == [0.0, 10.0, 30.0, 60.0, 100.0]

    def test_geometric(self):
        sched = gc.SnapshotSchedule("geometric", t1=5.0, ratio=2.0)
        assert [sched.duration(k) for k in (1, 2, 3)] == [5.0, 10.0, 20.0]
        assert list(islice(sched.boundaries(), 4)) == [0.0, 5.0, 15.0, 35.0]

    def test_kappa_zeta(self):
        sched = gc.SnapshotSchedule("linear", t1=10.0)
        assert sched.kappa_zeta(0.0) == (0, 0.0)
        assert sched.kappa_zeta(9.99) == (0, 0.0)
        assert sched.kappa_zeta(10.0) == (1, 10.0)  # boundary counts
        assert sched.kappa_zeta(45.0) == (2, 30.0)
        assert sched.kappa_zeta(100.0) == (4, 100.0)

    @pytest.mark.parametrize(
        "sched",
        [gc.SnapshotSchedule("linear", 10.0), gc.SnapshotSchedule("geometric", 3.0, 1.5)],
        ids=["linear", "geometric"],
    )
    def test_kappa_zeta_matches_linear_walk(self, sched):
        ref = gc.SnapshotSchedule(sched.kind, sched.t1, sched.ratio)
        bounds = list(islice(ref.boundaries(), 13))  # S_0, ..., S_12

        def walk(tau):
            l = 0
            while bounds[l + 1] <= tau:
                l += 1
            return l, bounds[l]

        edges = bounds[:12]
        taus = edges + [(a + b) / 2 for a, b in zip(edges, edges[1:])]
        # Far first, then back to the start: the cached prefix must not matter.
        for tau in sorted(taus, reverse=True) + sorted(taus):
            assert sched.kappa_zeta(tau) == walk(tau)

    def test_epochs_lengthen(self):
        for sched in (
            gc.SnapshotSchedule("linear", 3.0),
            gc.SnapshotSchedule("geometric", 3.0, 1.5),
        ):
            durs = [sched.duration(k) for k in range(1, 20)]
            assert all(b > a for a, b in zip(durs, durs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            gc.SnapshotSchedule("quadratic")
        with pytest.raises(ValueError):
            gc.SnapshotSchedule("linear", t1=0.0)
        with pytest.raises(ValueError):
            gc.SnapshotSchedule("geometric", t1=1.0, ratio=1.0)
        sched = gc.SnapshotSchedule()
        with pytest.raises(ValueError):
            sched.duration(0)
        with pytest.raises(ValueError):
            sched.kappa_zeta(-1.0)

    @pytest.mark.parametrize("tau", [math.inf, math.nan])
    def test_non_finite_tau_rejected(self, tau):
        # The walk over the boundaries would never end.
        with pytest.raises(ValueError, match=f"tau must be a finite number >= 0, got {tau!r}"):
            gc.SnapshotSchedule().kappa_zeta(tau)


class TestOnRequest:
    def test_hit_leaves_cache(self):
        real = _real([(1,), (2,)], [(3,), (3,)])
        req = RequestEvent(1.5, 1, frozenset({1}))
        hit, nxt = gc.on_request(real, req, 1)
        assert hit
        assert nxt.placement.columns() == ((1,), (2,))

    def test_miss_without_snapshot_backing_no_store(self):
        real = _real([(1,), (2,)], [(3,), (3,)])
        req = RequestEvent(2.0, 2, frozenset({1}))  # station 1 lacks content 2
        hit, nxt = gc.on_request(real, req, 1)
        assert not hit
        assert nxt.placement.columns() == ((1,), (2,))

    def test_miss_store_evicts_stale(self):
        # Snapshot says station 1 should hold content 3; a miss for 3 installs
        # it and evicts content 1, which the snapshot no longer lists.
        real = _real([(1,), (2,)], [(3,), (3,)])
        req = RequestEvent(2.0, 3, frozenset({1}))
        hit, nxt = gc.on_request(real, req, 1)
        assert not hit
        assert nxt.placement.columns() == ((3,), (2,))

    def test_store_keeps_snapshot_backed_contents(self):
        real = _real([(1, 2), (2, 3)], [(1, 3), (2, 3)], m=3, k=2)
        req = RequestEvent(4.0, 3, frozenset({1}))
        hit, nxt = gc.on_request(real, req, 1)
        assert not hit
        # Content 1 is still in the snapshot so it stays; content 2 goes.
        assert nxt.placement.columns() == ((1, 3), (2, 3))

    def test_store_can_leave_column_underfull(self):
        real = _real([(1, 2), (2, 3)], [(3, 1), (2, 3)], m=4, k=2)
        # Request content 4 at station 1: snapshot lacks it, nothing happens;
        # request content 3: installs 3, evicts 2, keeps 1 -> still 2 entries.
        req = RequestEvent(4.0, 4, frozenset({1}))
        _, nxt = gc.on_request(real, req, 1)
        assert nxt.placement.columns() == ((1, 2), (2, 3))
        # Now shrink: snapshot for station 1 is {3, 4}, cached {1, 2} both stale.
        real2 = _real([(1, 2), (2, 3)], [(3, 4), (2, 3)], m=4, k=2)
        req2 = RequestEvent(5.0, 4, frozenset({1}))
        hit, nxt2 = gc.on_request(real2, req2, 1)
        assert not hit
        assert nxt2.placement.columns() == ((4,), (2, 3))  # transiently under-full

    def test_other_stations_untouched(self):
        real = _real([(1,), (2,)], [(3,), (1,)])
        req = RequestEvent(1.0, 3, frozenset({1, 2}))
        _, nxt = gc.on_request(real, req, 1)
        assert nxt.placement.columns()[1] == (2,)


class TestRefreshSnapshot:
    def test_no_boundary_no_change(self):
        sched = gc.SnapshotSchedule("linear", 10.0)
        real = _real([(1,), (2,)], [(1,), (2,)])
        virtual = gc.Placement.from_columns(3, [(3,), (3,)], 1)
        nxt = gc.refresh_snapshot(real, virtual, 5.0, sched)
        assert nxt.snapshot.columns() == ((1,), (2,))
        assert nxt.snapshot_time == 0.0

    def test_boundary_adopts_virtual(self):
        sched = gc.SnapshotSchedule("linear", 10.0)
        real = _real([(1,), (2,)], [(1,), (2,)])
        virtual = gc.Placement.from_columns(3, [(3,), (3,)], 1)
        nxt = gc.refresh_snapshot(real, virtual, 12.0, sched)
        assert nxt.snapshot.columns() == ((3,), (3,))
        assert nxt.snapshot_time == 10.0

    def test_multiple_boundaries_single_refresh(self):
        sched = gc.SnapshotSchedule("linear", 10.0)
        real = _real([(1,), (2,)], [(1,), (2,)])
        virtual = gc.Placement.from_columns(3, [(3,), (3,)], 1)
        # tau = 65 has crossed S_1=10, S_2=30, S_3=60; only the latest counts.
        nxt = gc.refresh_snapshot(real, virtual, 65.0, sched)
        assert nxt.snapshot_time == 60.0
        again = gc.refresh_snapshot(nxt, virtual, 70.0, sched)
        assert again.snapshot_time == 60.0  # no further boundary crossed

    def test_real_cache_untouched_by_refresh(self):
        sched = gc.SnapshotSchedule("linear", 10.0)
        real = _real([(1,), (2,)], [(1,), (2,)])
        virtual = gc.Placement.from_columns(3, [(3,), (3,)], 1)
        nxt = gc.refresh_snapshot(real, virtual, 12.0, sched)
        assert nxt.placement.columns() == ((1,), (2,))


class TestMostPopularColumns:
    def test_basic(self):
        assert most_popular_columns((0.1, 0.5, 0.3), 2) == (2, 3)

    def test_tie_goes_to_lower_id(self):
        assert most_popular_columns((0.2, 0.2, 0.1), 1) == (1,)
        assert most_popular_columns((0.1, 0.2, 0.2), 1) == (2,)
