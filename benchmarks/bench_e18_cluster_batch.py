"""E18 — set-at-a-time vs tuple-at-a-time on a 4-shard cluster.

The tutorial's performance claim is that game logic written as
set-at-a-time operations over columns beats tuple-at-a-time
interpretation.  E18 measures that claim on the full cluster machinery
rather than on one world: a 4-shard cluster with a drift system,
migrations, and local plus cross-shard 2PC transfers, run twice on one
thread:

* **tuple/serial** — the drift system as a per-entity
  ``world.get``/``world.set`` callback (``coord.add_per_entity_system``);
  this is the speedup denominator;
* **batch/serial** — the same arithmetic as a batch kernel over the
  Position columns (``coord.add_batch_system``).

Both formulations perform bit-identical float operations (``x + 0.9``
is ``x + 0.9``), so the run asserts ``state_hash`` equality inline and
``cluster_speedup`` isolates the execution strategy.  The ratio does
not depend on core count; the regression gate pins the hash boolean
exactly and puts an absolute floor on the ratio
(``check_regression.py --min cluster_speedup=2.0``).

``--out foo.json`` writes the machine-readable per-run artifact that
``check_regression.py`` compares against ``BENCH_E18.baseline.json``.
"""

import random

from bench_common import (
    BenchTable,
    emit_json,
    emit_report,
    make_parser,
    trace_session,
    wall_time,
)

from repro.cluster import ClusterCoordinator, StaticGridPlacement
from repro.consistency.partition import StaticGridPartitioner
from repro.spatial.geometry import AABB
from repro.workloads.hotspot import cluster_schemas, transfer_spec


def _drift(world, eid, dt):
    pos = world.get(eid, "Position")
    world.set(eid, "Position", x=pos["x"] + 0.9, y=pos["y"] + 0.4)


def _drift_batch(world, ids, cols, dt):
    return {
        "Position.x": [x + 0.9 for x in cols["Position.x"]],
        "Position.y": [y + 0.4 for y in cols["Position.y"]],
    }


def build_cluster(seed: int = 1, entities: int = 5000, batch: bool = False):
    placement = StaticGridPlacement(
        StaticGridPartitioner(AABB(0, 0, 800, 800), 2, 2, 4)
    )
    coord = ClusterCoordinator(4, placement, cluster_schemas(), seed=seed)
    rng = random.Random(seed + 17)
    eids = [
        coord.spawn(
            {
                "Position": {
                    "x": rng.uniform(0, 800), "y": rng.uniform(0, 800)
                },
                "Wealth": {},
            }
        )
        for _ in range(entities)
    ]
    if batch:
        coord.add_batch_system(
            "drift",
            reads=["Position.x", "Position.y"],
            fn=_drift_batch,
            writes=["Position.x", "Position.y"],
        )
    else:
        coord.add_per_entity_system("drift", ["Position"], _drift)
    return coord, eids, rng


def run_cluster_ticks(coord, eids, rng, ticks: int):
    for t in range(ticks):
        if t % 4 == 0:
            a, b = rng.sample(eids, 2)
            coord.submit(transfer_spec(a, b, 2))
        coord.tick()
    coord.quiesce()


def _measure(batch: bool, ticks: int, seed: int, entities: int):
    """(best-of-2 seconds per tick, final state_hash) for one formulation.

    Best-of-2 over the same tick count, so one scheduling hiccup cannot
    fail the absolute floor; state hashes still line up because both
    formulations advance the same total number of ticks with their own
    identically-seeded rng.
    """
    coord, eids, rng = build_cluster(seed, entities, batch=batch)
    t = wall_time(lambda: run_cluster_ticks(coord, eids, rng, ticks),
                  repeats=2)
    return t / ticks, coord.state_hash()


def run_cluster_cell(ticks: int = 30, seed: int = 1, entities: int = 5000):
    """[(mode, t_per_tick, hash_equal)] for tuple/serial then batch/serial."""
    t_tuple, tuple_hash = _measure(False, ticks, seed, entities)
    t_batch, batch_hash = _measure(True, ticks, seed, entities)
    return [
        ("tuple/serial", t_tuple, True),
        ("batch/serial", t_batch, batch_hash == tuple_hash),
    ]


# -- report ----------------------------------------------------------------------

def run_experiment(ticks=30, seed=1, entities=5000):
    table = BenchTable(
        "E18: shard cluster, batch vs tuple-at-a-time (one thread)",
        ["mode", "t_tick_ms", "speedup", "hash_equal"],
    )
    rows = run_cluster_cell(ticks=ticks, seed=seed, entities=entities)
    t_tuple = rows[0][1]
    for mode, t, equal in rows:
        table.add_row(mode, t * 1e3, t_tuple / t if t else float("inf"), equal)
    metrics = {
        # Host-independent: gated exactly.
        "cluster_hash_equal": all(table.column("hash_equal")),
        # Batch-vs-tuple: host independent, gated with an absolute
        # floor (--min cluster_speedup=2.0) on top of the tolerance.
        "cluster_speedup": table.column("speedup")[-1],
    }
    return {"tables": [table], "metrics": metrics, "entities": entities}


def to_payload(result, seed):
    """The JSON artifact for one run (input to check_regression.py)."""
    return {
        "experiment": "E18",
        "seed": seed,
        "cluster_entities": result["entities"],
        "tables": [t.to_dict() for t in result["tables"]],
        "metrics": result["metrics"],
    }


def print_report(ticks=30, seed=1, entities=5000) -> None:
    result = run_experiment(ticks=ticks, seed=seed, entities=entities)
    for table in result["tables"]:
        table.print()
    m = result["metrics"]
    print(f"cluster batch vs tuple-at-a-time: {m['cluster_speedup']:.2f}x "
          f"(hashes equal: {m['cluster_hash_equal']})")
    print("-> same arithmetic, same cluster machinery: the batch "
          "formulation over typed columns beats per-entity get/set "
          "interpretation, and both land on a bit-identical state.")


# -- pytest-benchmark entries ----------------------------------------------------

def test_e18_tuple_tick(benchmark):
    coord, _eids, _rng = build_cluster(entities=500)
    benchmark(coord.tick)


def test_e18_batch_tick(benchmark):
    coord, _eids, _rng = build_cluster(entities=500, batch=True)
    benchmark(coord.tick)


def test_e18_shape_holds(benchmark):
    """The determinism assertion, at CI-friendly sizes."""

    def check():
        result = run_experiment(ticks=12, entities=200)
        m = result["metrics"]
        assert m["cluster_hash_equal"], "batch cluster must be bit-identical"
        return m

    benchmark.pedantic(check, rounds=1, iterations=1)


if __name__ == "__main__":
    parser = make_parser("E18 cluster batch-vs-tuple benchmark")
    parser.add_argument(
        "--ticks", type=int, default=30,
        help="global ticks per cluster measurement",
    )
    parser.add_argument(
        "--entities", type=int, default=5000,
        help="entity count for the shard cluster",
    )
    cli = parser.parse_args()
    if cli.ticks < 1 or cli.entities < 2:
        parser.error("--ticks must be >= 1 and --entities >= 2")
    with trace_session(cli.trace_out):
        if cli.out and cli.out.endswith(".json"):
            result = run_experiment(
                ticks=cli.ticks, seed=cli.seed, entities=cli.entities
            )
            for table in result["tables"]:
                table.print()
            emit_json(cli.out, to_payload(result, cli.seed))
        else:
            emit_report(
                print_report, out=cli.out, ticks=cli.ticks, seed=cli.seed,
                entities=cli.entities,
            )
