"""Coordinator-driven schema rollout: broadcast, acks, mixed-version
ticks, version-stamped handoffs and 2PC, and deterministic replay."""

import pytest

from repro.cluster import ClusterCoordinator, StaticGridPlacement
from repro.consistency import (
    StaticGridPartitioner,
    TxnSpec,
    increment,
    read_for_update,
)
from repro.core.component import ComponentSchema, FieldDef
from repro.errors import ClusterError
from repro.schema import AddColumn, RetypeColumn
from repro.spatial import AABB

BOUNDS = AABB(0.0, 0.0, 100.0, 100.0)


def schemas():
    return [
        ComponentSchema(
            "Position", (FieldDef("x", "float"), FieldDef("y", "float"))
        ),
        ComponentSchema("Health", (FieldDef("hp", "int"),)),
    ]


def build(shards=2, seed=7, rows=40):
    coord = ClusterCoordinator(
        shards,
        StaticGridPlacement(StaticGridPartitioner(BOUNDS, shards, 1, shards)),
        schemas(),
        seed=seed,
        repartition_interval=1000,
    )
    for i in range(rows):
        coord.spawn({
            "Position": {"x": float(i % 10) * 10, "y": 5.0},
            "Health": {"hp": i},
        })
    return coord


STEPS = [AddColumn("regen", 0.5), RetypeColumn("hp", "float")]


class TestRollout:
    def test_alter_reaches_every_shard_and_commits(self):
        coord = build()
        coord.run(2)
        to = coord.alter("Health", list(STEPS), batch_rows=8)
        assert to == 2
        assert coord.schema_rollouts_in_flight == 1
        coord.quiesce(64)
        assert coord.schema_rollouts_in_flight == 0
        assert coord.schema_version_of("Health") == 2
        for host in coord.shards:
            assert host.world.catalog.version_of("Health") == 2
            assert host.world.table("Health").unmigrated_count == 0
        coord.check_invariants()

    def test_rollout_is_deterministic(self):
        def run():
            coord = build()
            coord.run(2)
            coord.alter("Health", list(STEPS), batch_rows=4)
            coord.run(15)
            coord.quiesce(64)
            return coord.state_hash()

        assert run() == run()

    def test_quiesce_waits_for_rollout(self):
        coord = build()
        coord.run(2)
        coord.alter("Health", list(STEPS), batch_rows=1)
        assert not coord._quiet()
        coord.quiesce(128)
        assert coord.schema_version_of("Health") == 2

    def test_errors(self):
        coord = build()
        with pytest.raises(ClusterError):
            coord.alter("Nope", list(STEPS))
        with pytest.raises(ClusterError):
            coord.alter("Health", [])
        coord.alter("Health", [AddColumn("regen", 0.5)])
        with pytest.raises(ClusterError):
            coord.alter("Health", [AddColumn("other", 1.0)])


class TestMixedVersionHandoffs:
    def test_handoffs_during_rollout_converge(self):
        coord = build(rows=60)
        coord.run(2)
        coord.alter("Health", list(STEPS), batch_rows=4)
        # Kick off handoffs in both directions while shards disagree on
        # the catalog version.
        moved = 0
        for entity in sorted(coord.directory)[:8]:
            dst = 1 - coord.owner_of(entity)
            if coord.migrate(entity, dst):
                moved += 1
        assert moved > 0
        coord.quiesce(128)
        coord.check_invariants()
        assert coord.schema_version_of("Health") == 2
        for host in coord.shards:
            assert host.world.table("Health").unmigrated_count == 0
            for eid in sorted(host.owned)[:3]:
                row = host.world.get(eid, "Health")
                assert isinstance(row["hp"], float)
                assert row["regen"] == 0.5

    def test_handoff_stamps_match_rows(self):
        # Same scenario, but pin that values survive: hp must equal the
        # float of the entity's original int hp regardless of which
        # shard migrated the row.
        coord = build(rows=30)
        original = {
            e: coord.shards[coord.owner_of(e)].world.get_field(e, "Health", "hp")
            for e in coord.directory
        }
        coord.run(2)
        coord.alter("Health", list(STEPS), batch_rows=2)
        for entity in sorted(coord.directory)[:6]:
            coord.migrate(entity, 1 - coord.owner_of(entity))
        coord.quiesce(128)
        for entity, hp in original.items():
            host = coord.shards[coord.owner_of(entity)]
            assert host.world.get_field(entity, "Health", "hp") == float(hp)


def hp_swap_spec(a, b, amount=1):
    ka = (a, "Health", "hp")
    kb = (b, "Health", "hp")
    return TxnSpec(
        name=f"swap:{a}<->{b}",
        ops=[
            read_for_update(ka),
            read_for_update(kb),
            increment(ka, amount),
            increment(kb, -amount),
        ],
    )


class TestMixedVersion2PC:
    def test_txns_survive_a_rollout(self):
        coord = build(rows=40)
        coord.run(2)
        entities = sorted(coord.directory)
        a = next(e for e in entities if coord.owner_of(e) == 0)
        b = next(e for e in entities if coord.owner_of(e) == 1)
        coord.alter("Health", list(STEPS), batch_rows=2)
        txns = []
        for _ in range(6):
            txns.append(coord.submit(hp_swap_spec(a, b)))
            coord.tick()
        coord.quiesce(128)
        outcomes = [coord.txn_outcome(t) for t in txns]
        # Every transaction decided; mixed-version aborts are allowed
        # but the window must close once the rollout commits.
        assert all(o is not None for o in outcomes)
        coord.check_invariants()
        retry = coord.submit(hp_swap_spec(a, b))
        coord.quiesce(64)
        assert coord.txn_outcome(retry) is True
