"""Tests for consistency tiers and interest management."""

import pytest

from repro.consistency import (
    ConsistencyLevel,
    InterestManager,
    ReplicatedField,
    UPDATE_BYTES,
)
from repro.errors import NetError, SpatialError


class TestStrongTier:
    def test_immediate_propagation(self):
        f = ReplicatedField("hp", ConsistencyLevel.STRONG, replicas=3, initial=100)
        f.write(50)
        assert all(r == 50 for r in f.replicas)
        assert f.synchronized

    def test_every_write_costs_bandwidth(self):
        f = ReplicatedField("hp", ConsistencyLevel.STRONG, replicas=2)
        for v in range(10):
            f.write(v)
            f.tick()
        assert f.stats.updates_sent == 20
        assert f.stats.bytes_sent == 20 * UPDATE_BYTES
        assert f.stats.max_staleness_ticks == 0


class TestCoarseTier:
    def test_cadence_batching(self):
        f = ReplicatedField(
            "x", ConsistencyLevel.COARSE, replicas=1, coarse_interval=5
        )
        for t in range(10):
            f.write(float(t))
            f.tick()
        # syncs at ticks 5 and 10 only
        assert f.stats.updates_sent == 2

    def test_quantisation(self):
        f = ReplicatedField(
            "x", ConsistencyLevel.COARSE, replicas=1,
            quantum=1.0, coarse_interval=1,
        )
        f.write(3.4)
        f.tick()
        assert f.replica_value(0) == 3.0
        assert f.synchronized  # synchronized means equal *after* quantising

    def test_staleness_bounded_by_interval(self):
        f = ReplicatedField(
            "x", ConsistencyLevel.COARSE, replicas=1, coarse_interval=4
        )
        for t in range(20):
            f.write(float(t))
            f.tick()
        assert 0 < f.stats.max_staleness_ticks <= 4

    def test_no_traffic_when_idle(self):
        f = ReplicatedField(
            "x", ConsistencyLevel.COARSE, replicas=1, coarse_interval=2
        )
        for _ in range(10):
            f.tick()
        assert f.stats.updates_sent == 0


class TestEventualTier:
    def test_eventual_converges_after_writes_stop(self):
        f = ReplicatedField(
            "cape", ConsistencyLevel.EVENTUAL, replicas=2,
            eventual_interval=7, initial="red",
        )
        f.write("blue")
        assert not f.synchronized
        for _ in range(7):
            f.tick()
        assert f.synchronized
        assert f.replica_value(0) == "blue"

    def test_cheapest_tier(self):
        strong = ReplicatedField("a", ConsistencyLevel.STRONG, replicas=1)
        eventual = ReplicatedField(
            "b", ConsistencyLevel.EVENTUAL, replicas=1, eventual_interval=30
        )
        for t in range(60):
            strong.write(t)
            strong.tick()
            eventual.write(t)
            eventual.tick()
        assert eventual.stats.bytes_sent < strong.stats.bytes_sent / 5

    def test_force_sync(self):
        f = ReplicatedField(
            "x", ConsistencyLevel.EVENTUAL, replicas=2, eventual_interval=1000
        )
        f.write(9)
        f.force_sync()
        assert f.synchronized


class TestPolicy:
    def test_replicas_required(self):
        with pytest.raises(NetError):
            ReplicatedField("x", ConsistencyLevel.STRONG, replicas=0)


class TestInterestManager:
    def test_enter_exit_events(self):
        im = InterestManager(radius=10, hysteresis=0.0)
        pos = {1: (0.0, 0.0), 2: (5.0, 0.0)}
        events = im.update([1], pos)
        assert [(e.kind, e.subject) for e in events] == [("enter", 2)]
        pos[2] = (50.0, 0.0)
        events = im.update([1], pos)
        assert [(e.kind, e.subject) for e in events] == [("exit", 2)]

    def test_hysteresis_prevents_flapping(self):
        im = InterestManager(radius=10, hysteresis=0.5)  # exit at 15
        pos = {1: (0.0, 0.0), 2: (9.0, 0.0)}
        im.update([1], pos)
        churn_before = im.stats.churn
        for step in range(20):
            pos[2] = (9.0 + (step % 2) * 3.0, 0.0)  # oscillates 9 <-> 12
            im.update([1], pos)
        assert im.stats.churn == churn_before  # no extra events

    def test_no_hysteresis_flaps(self):
        im = InterestManager(radius=10, hysteresis=0.0)
        pos = {1: (0.0, 0.0), 2: (9.0, 0.0)}
        im.update([1], pos)
        for step in range(10):
            pos[2] = (9.0 + (step % 2) * 3.0, 0.0)
            im.update([1], pos)
        assert im.stats.churn > 5

    def test_self_not_in_aoi(self):
        im = InterestManager(radius=10)
        im.update([1], {1: (0.0, 0.0)})
        assert im.aoi_of(1) == set()

    def test_route_update_counts_traffic(self):
        im = InterestManager(radius=10)
        pos = {1: (0.0, 0.0), 2: (3.0, 0.0), 3: (100.0, 0.0)}
        im.update([1, 3], pos)
        recipients = im.route_update(2, [1, 3])
        assert recipients == [1]
        assert im.stats.updates_sent == 1

    def test_missed_interactions(self):
        im = InterestManager(radius=5)
        pos = {1: (0.0, 0.0), 2: (20.0, 0.0)}
        im.update([1, 2], pos)
        # they interact (say via a long-range ability) but can't see each other
        assert im.missed_interactions(pos, [(1, 2)]) == 1
        pos[2] = (3.0, 0.0)
        im.update([1, 2], pos)
        assert im.missed_interactions(pos, [(1, 2)]) == 0

    def test_bigger_radius_fewer_missed(self):
        import random

        rng = random.Random(5)
        pos = {i: (rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(40)}
        pairs = [
            (a, b)
            for a in pos
            for b in pos
            if a < b
            and (pos[a][0] - pos[b][0]) ** 2 + (pos[a][1] - pos[b][1]) ** 2 < 400
        ]
        missed = []
        for radius in (5, 20, 60):
            im = InterestManager(radius=radius)
            im.update(list(pos), pos)
            missed.append(im.missed_interactions(pos, pairs))
        assert missed[0] >= missed[1] >= missed[2]
        assert missed[2] == 0

    def test_invalid_params(self):
        with pytest.raises(SpatialError):
            InterestManager(radius=0)
        with pytest.raises(SpatialError):
            InterestManager(radius=1, hysteresis=-0.1)
