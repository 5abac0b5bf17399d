"""Persistent world: WAL, intelligent checkpointing, crash recovery, and a
live schema migration.

The tutorial's Engineering Challenges, end to end: an in-memory game tier
journals every action; the checkpointer writes through a (mini) SQL
backend when *important* events complete rather than on a timer; the
server then crashes mid-session and recovers; finally the character table
gains a column both ways — offline (downtime) and online (zero downtime)
— and the blob alternative is sized up.

Run:  python examples/persistent_world.py
"""

from repro.core import GameWorld
from repro.persistence import (
    BlobCodec,
    CheckpointManager,
    EventDrivenPolicy,
    InMemoryGameDB,
    IntervalPolicy,
    SQLBackingStore,
    WriteAheadLog,
    blob_size,
    recover,
)
from repro.schema import AddColumn
from repro.workloads import TraceConfig, generate_action_trace, milestones_in


def play_session(policy, trace):
    """Run a play session under a checkpoint policy; crash at the end."""
    wal = WriteAheadLog(group_commit=64, auto_flush=True)
    db = InMemoryGameDB(wal)
    db.create_table("players")
    db.create_table("milestones")
    store = SQLBackingStore()
    mgr = CheckpointManager(db, store, policy)
    for action in trace:
        mgr.record(action)
    lost_records = wal.crash()  # the server dies
    recovered_db, report = recover(wal, store, expected_actions=trace)
    return mgr, report, lost_records


def main() -> None:
    trace = generate_action_trace(
        TraceConfig(ticks=6000, players=40, milestone_rate=0.003, seed=13)
    )
    milestones = milestones_in(trace)
    print(f"session trace: {len(trace)} actions, {len(milestones)} milestones "
          "(boss kills, epic drops)")

    print("\npolicy          | checkpoints | lost actions | lost importance | "
          "worst lost")
    for label, policy in [
        ("interval(2000)", IntervalPolicy(interval_ticks=2000)),
        ("event-driven  ", EventDrivenPolicy(importance_threshold=3.0,
                                             instant_threshold=0.9)),
    ]:
        mgr, report, _ = play_session(policy, trace)
        print(
            f"{label} | {mgr.stats.checkpoints:11d} | "
            f"{report.lost_actions:12d} | {report.lost_importance:15.2f} | "
            f"{report.worst_lost_importance:10.2f}"
        )
    print("-> the event-driven policy checkpoints *at* the milestone, so a "
          "crash never rolls back a boss kill.")

    # ------------------------------------------------------- schema migration
    print("\nlive schema migration: add 'honor', derive 'power'")
    seasons = (
        [AddColumn("honor", 0, type_name="int")],          # season 2: honor
        [AddColumn("power", type_name="int",
                   derive="gold // 10 + honor")],          # season 3: power
    )

    def character_world(n=3000):
        world = GameWorld()
        world.catalog.define("Char", name="str", gold="int")
        eids = [world.spawn(Char={"name": f"hero{i}", "gold": i % 500})
                for i in range(n)]
        return world, eids

    offline_world, _ = character_world()
    rewrites = sum(
        offline_world.catalog.alter("Char", steps, online=False).rows_migrated
        for steps in seasons
    )
    print(f"  offline : {rewrites} rewrites, {rewrites} ticks of downtime")

    online_world, eids = character_world()
    handle = online_world.catalog.alter(
        "Char", [step for steps in seasons for step in steps], batch_rows=128
    )
    served_reads = ticks = 0
    while not handle.done:
        online_world.tick()
        ticks += 1
        # players keep playing: reads see the new schema mid-backfill
        _ = online_world.get(eids[served_reads % len(eids)], "Char")["power"]
        served_reads += 1
    print(f"  online  : {handle.rows_migrated} rewrites over {ticks} "
          f"background ticks, downtime 0, "
          f"{served_reads} reads served during migration")

    # --------------------------------------------------------- blob contrast
    print("\nthe blob alternative (what studios actually ship):")
    codec = BlobCodec(current_version=1)
    old_blob = codec.encode({"name": "hero1", "gold": 100})
    codec.register_upgrader(1, lambda r: {**r, "honor": 0})
    codec.bump_version()
    codec.register_upgrader(
        2, lambda r: {**r, "power": r["gold"] // 10 + r["honor"]}
    )
    codec.bump_version()
    upgraded = codec.decode(old_blob)  # lazily upgraded on read
    print(f"  v1 blob read at v3: {upgraded}")
    print(f"  migration downtime: 0 ticks; but every field read decodes "
          f"{blob_size(upgraded, 3)} bytes (vs O(1) column access)")


if __name__ == "__main__":
    main()
