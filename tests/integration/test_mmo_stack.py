"""Integration tests for the MMO side: bubbles over moving workloads,
replication of simulated worlds, transactions over game state."""


from repro.consistency import (
    BubbleTimeline,
    CausalityBubblePartitioner,
    StaticGridPartitioner,
    TxnSpec,
    VersionedStore,
    make_scheduler,
    read_for_update,
    write,
)
from repro.gateway import GatewayConfig
from repro.spatial import AABB, grid_join
from repro.workloads import OrbitalModel, RandomWaypoint

from tests.gateway.conftest import TestClient, make_core, make_world

BOUNDS = AABB(0, 0, 600, 600)


class TestBubblesOverMovingWorkload:
    def test_bubbles_never_split_actual_interactions(self):
        model = OrbitalModel(BOUNDS, 80, wells=4, seed=3, a_max=5.0)
        partitioner = CausalityBubblePartitioner(
            interaction_range=8.0, horizon=2.0, shards=4
        )
        timeline = BubbleTimeline()
        for _round in range(5):
            states = model.states(a_max=5.0)
            partition = partitioner.partition(states)
            timeline.record(partition)
            # simulate forward one horizon; interactions that actually
            # happen must be intra-shard
            for _ in range(2):
                model.step(1.0)
                pairs = grid_join(model.positions(), 8.0)
                metrics = partition.evaluate(pairs)
                assert metrics.cross_partition_pairs == 0
        assert timeline.mean_bubble_count() >= 1

    def test_bubbles_beat_static_on_moving_fleets(self):
        model = OrbitalModel(BOUNDS, 100, wells=5, seed=9, warp_rate=0.01)
        static = StaticGridPartitioner(BOUNDS, 3, 3, shards=4)
        bubble = CausalityBubblePartitioner(8.0, 2.0, shards=4)
        static_cross = bubble_cross = 0
        for _ in range(10):
            model.step(1.0)
            positions = model.positions()
            pairs = grid_join(positions, 8.0)
            static_cross += static.evaluate(positions, pairs).cross_partition_pairs
            bubble_cross += bubble.partition(
                model.states(a_max=5.0)
            ).evaluate(pairs).cross_partition_pairs
        assert bubble_cross == 0
        assert static_cross >= 0  # static may or may not cross on this seed


class TestReplicatedSimulatedWorld:
    def test_two_clients_converge_on_coarse_positions(self):
        world = make_world()
        config = GatewayConfig()
        core = make_core(world, config)
        a1 = world.spawn(Position={"x": 0.0, "y": 0.0})
        a2 = world.spawn(Position={"x": 10.0, "y": 0.0})
        mover = world.spawn(Position={"x": 5.0, "y": 5.0})
        c1 = TestClient(core, "c1", avatar=a1, aoi_radius=100.0)
        c2 = TestClient(core, "c2", avatar=a2, aoi_radius=100.0)
        c1.hello()
        c2.hello()
        model = RandomWaypoint(AABB(0, 0, 50, 50), 1, seed=4)
        for _t in range(40):
            mx, my = model.positions()[0]
            world.set(mover, "Position", x=mx, y=my)
            model.step(0.3)
            world.tick()
            core.tick()
            c1.sync()
            c2.sync()
        # dead-reckoning suppression keeps each replica within the
        # threshold of the authoritative position, never further
        truth = world.get(mover, "Position")
        for client in (c1, c2):
            assert abs(client.replica[mover]["x"] - truth["x"]) <= config.dr_threshold
            assert abs(client.replica[mover]["y"] - truth["y"]) <= config.dr_threshold
        assert c1.replica[mover] == c2.replica[mover]

    def test_interest_scoped_bandwidth(self):
        def run(radius):
            world = make_world()
            core = make_core(
                world, GatewayConfig(default_radius=radius, max_radius=radius)
            )
            avatar = world.spawn(Position={"x": 0.0, "y": 0.0})
            client = TestClient(core, "c1", avatar=avatar)
            client.hello()
            movers = [
                world.spawn(Position={"x": 100.0 + i, "y": 100.0})
                for i in range(20)
            ]
            for t in range(20):
                for m in movers:
                    world.set(m, "Position", y=100.0 + t)
                world.tick()
                core.tick()
                client.drain()
            assert not core.evictions
            return core.bytes_sent

        scoped = run(radius=30.0)
        unscoped = run(radius=1000.0)  # covers the whole map
        assert scoped < unscoped / 2


class TestTransactionsOverGameState:
    def test_trade_window_invariant(self):
        """Two players trading items + gold concurrently with a duping
        attempt: committed history preserves totals."""
        store = VersionedStore({
            ("gold", "alice"): 100,
            ("gold", "bob"): 50,
            ("item", "sword"): "alice",
        })

        def trade(name, seller, buyer, price):
            return TxnSpec(name, [
                read_for_update(("gold", buyer)),
                read_for_update(("item", "sword")),
                write(("item", "sword"),
                      lambda old, r, s=seller, b=buyer: b if old == s else old),
                write(("gold", buyer),
                      lambda old, r, p=price: old - p),
                write(("gold", seller),
                      lambda old, r, p=price: old + p),
            ])

        # bob buys from alice twice concurrently (double-click dupe)
        specs = [
            trade("t1", "alice", "bob", 30),
            trade("t2", "alice", "bob", 30),
        ]
        stats = make_scheduler("2pl", store).run(specs, concurrency=2)
        assert stats.committed == 2
        total_gold = store.get(("gold", "alice")) + store.get(("gold", "bob"))
        assert total_gold == 150
        assert store.get(("item", "sword")) == "bob"
