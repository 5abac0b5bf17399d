"""E9 / Table 3 — structured columns vs unstructured blobs under schema
evolution.

Paper claim (Engineering Challenges): long-lived MMOs "often choose to
write data as unstructured 'blobs' into a single attribute, so that they
can preserve their old schemas" — trading query power for migration
freedom.

Workload: a character store that survives three seasons of schema change
(add honor, rename gold→coins, derive power).  Three storage designs:

* structured columns, migrated offline by the world catalog (lock &
  rewrite, once per season);
* structured columns, migrated online by the world catalog (the three
  seasons as one alter: dual-version reads + per-tick backfill);
* blob column with versioned lazy upgrade-on-read.

Measured: migration downtime, rows rewritten eagerly, per-field read cost
after migration, and storage bytes.  Expected shape: blobs win migration
downtime outright (zero, nothing rewritten), lose per-field reads by an
order of magnitude (decode the whole record), and cost more bytes; online
migration is the middle ground the tutorial asks research to provide.
"""

from bench_common import BenchTable, wall_time

from repro.core import GameWorld
from repro.persistence import BlobCodec, blob_size
from repro.schema import AddColumn, RenameColumn

N_CHARS = 2000
FIELD_READS = 4000

#: Three seasons of schema change, one step list per season.
SEASONS = (
    (AddColumn("honor", 0, type_name="int"),),
    (RenameColumn("gold", "coins"),),
    (AddColumn("power", type_name="int", derive="coins // 10 + honor"),),
)


def character(i):
    return {"name": f"hero{i}", "gold": (i * 37) % 900, "race": "orc"}


def character_world(n):
    """A world whose ``Char`` table holds ``n`` season-1 characters."""
    world = GameWorld()
    world.catalog.define("Char", name="str", gold="int", race="str")
    eids = [world.spawn(Char=character(i)) for i in range(n)]
    return world, eids


def migrate(world, online: bool):
    """Run the three seasons; returns (downtime_ticks, rows_rewritten).

    Offline, each season locks the table and rewrites every row, one
    downtime tick per row.  Online, the seasons fold into one alter that
    backfills ``batch_rows`` rows per world tick while reads and writes
    continue, so each row is rewritten once and nothing waits.
    """
    if not online:
        rewritten = sum(
            world.catalog.alter("Char", steps, online=False).rows_migrated
            for steps in SEASONS
        )
        return rewritten, rewritten
    handle = world.catalog.alter(
        "Char", [step for steps in SEASONS for step in steps], batch_rows=256
    )
    while not handle.done:
        world.tick()
    return 0, handle.rows_migrated


def run_structured(online: bool):
    world, eids = character_world(N_CHARS)
    downtime, rewritten = migrate(world, online)

    def read_fields():
        total = 0
        for i in range(FIELD_READS):
            total += world.get_field(eids[i % N_CHARS], "Char", "power")
        return total

    read_ms = wall_time(read_fields, repeats=2) * 1000
    storage = sum(
        blob_size(world.get(eids[i], "Char")) for i in range(0, N_CHARS, 50)
    ) * 50  # sampled estimate, same estimator for all designs
    return downtime, rewritten, read_ms, storage


def run_blob():
    codec = BlobCodec(current_version=1)
    store = {i: codec.encode(character(i)) for i in range(N_CHARS)}
    # three seasons of schema change: zero downtime, nothing rewritten
    codec.register_upgrader(1, lambda r: {**r, "honor": 0})
    codec.bump_version()
    codec.register_upgrader(
        2, lambda r: {**{k: v for k, v in r.items() if k != "gold"},
                      "coins": r["gold"]}
    )
    codec.bump_version()
    codec.register_upgrader(
        3, lambda r: {**r, "power": r["coins"] // 10 + r["honor"]}
    )
    codec.bump_version()

    def read_fields():
        total = 0
        for i in range(FIELD_READS):
            total += codec.read_field(store[i % N_CHARS], "power")
        return total

    read_ms = wall_time(read_fields, repeats=2) * 1000
    storage = sum(len(b) for b in store.values())
    return read_ms, storage


def run_experiment() -> BenchTable:
    table = BenchTable(
        f"E9 / Table 3: schema evolution over {N_CHARS} characters, "
        "3 migrations",
        ["design", "downtime_ticks", "rows_rewritten_eagerly",
         f"read_{FIELD_READS}_fields_ms", "storage_bytes"],
    )
    table.add_row("structured+offline", *run_structured(online=False))
    table.add_row("structured+online", *run_structured(online=True))
    blob_read, blob_storage = run_blob()
    table.add_row("blob(lazy)", 0, 0, blob_read, blob_storage)
    return table


def print_report() -> None:
    table = run_experiment()
    table.print()
    reads = table.column(f"read_{FIELD_READS}_fields_ms")
    print(f"blob per-field read penalty vs structured: "
          f"{reads[2] / reads[0]:.1f}x")
    print("-> blobs trade zero-downtime migrations for paying the decode "
          "on every read — exactly the tutorial's sustainability tension.")


# -- pytest-benchmark entries ----------------------------------------------------

def test_e9_structured_field_reads(benchmark):
    world, eids = character_world(500)
    migrate(world, online=False)
    benchmark(lambda: [world.get_field(e, "Char", "power") for e in eids])


def test_e9_blob_field_reads(benchmark):
    codec = BlobCodec(current_version=1)
    store = {i: codec.encode(character(i)) for i in range(500)}
    codec.register_upgrader(1, lambda r: {**r, "honor": 0})
    codec.bump_version()
    codec.register_upgrader(
        2, lambda r: {**{k: v for k, v in r.items() if k != "gold"},
                      "coins": r["gold"]}
    )
    codec.bump_version()
    codec.register_upgrader(
        3, lambda r: {**r, "power": r["coins"] // 10 + r["honor"]}
    )
    codec.bump_version()
    benchmark(
        lambda: [codec.read_field(store[i % 500], "power") for i in range(500)]
    )


def test_e9_offline_migration_cost(benchmark):
    def run():
        world, _ = character_world(500)
        return migrate(world, online=False)[0]

    benchmark(run)


def test_e9_shape_holds(benchmark):
    def check():
        table = run_experiment()
        rows = {r[0]: r for r in table.rows}
        # blob: zero downtime, zero eager rewrites
        assert rows["blob(lazy)"][1] == 0 and rows["blob(lazy)"][2] == 0
        # offline: downtime proportional to rows × versions
        assert rows["structured+offline"][1] == N_CHARS * 3
        # online: zero downtime but eager rewrites happen in background
        assert rows["structured+online"][1] == 0
        assert rows["structured+online"][2] == N_CHARS
        # blob reads cost materially more than structured reads
        assert rows["blob(lazy)"][3] > rows["structured+offline"][3] * 2

    benchmark.pedantic(check, rounds=1, iterations=1)


if __name__ == "__main__":
    print_report()
