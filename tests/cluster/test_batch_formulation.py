"""Batch and tuple formulations of one cluster workload are bit-identical.

The E18 premise: a per-entity ``get``/``set`` drift system and an
elementwise batch kernel over the Position columns perform the same
float operations, so a 4-shard cluster running either one — with
migrations, deferred handoffs and local plus cross-shard 2PC transfers —
must land on the same ``state_hash``.  Runs on both typed column
backends.
"""

import random

import pytest

from repro.cluster import ClusterCoordinator, StaticGridPlacement
from repro.consistency.partition import StaticGridPartitioner
from repro.core.columns import set_default_backend
from repro.spatial.geometry import AABB
from repro.workloads.hotspot import cluster_schemas, transfer_spec

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy-less host
    HAVE_NUMPY = False

BACKENDS = [
    "array",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed"),
    ),
]


def drift(world, eid, dt):
    pos = world.get(eid, "Position")
    world.set(eid, "Position", x=pos["x"] + 0.7, y=pos["y"] + 0.3)


def drift_batch(world, ids, cols, dt):
    return {
        "Position.x": [x + 0.7 for x in cols["Position.x"]],
        "Position.y": [y + 0.3 for y in cols["Position.y"]],
    }


def run_cluster(backend, batch, ticks=40, seed=11, txn_every=5):
    set_default_backend(backend)
    try:
        coord = ClusterCoordinator(
            4,
            StaticGridPlacement(
                StaticGridPartitioner(AABB(0, 0, 400, 400), 2, 2, 4)
            ),
            cluster_schemas(),
            seed=seed,
        )
    finally:
        set_default_backend(None)
    rng = random.Random(seed * 7 + 1)
    eids = [
        coord.spawn(
            {
                "Position": {
                    "x": rng.uniform(0, 400), "y": rng.uniform(0, 400)
                },
                "Wealth": {},
            }
        )
        for _ in range(100)
    ]
    if batch:
        coord.add_batch_system(
            "drift",
            reads=["Position.x", "Position.y"],
            fn=drift_batch,
            writes=["Position.x", "Position.y"],
        )
    else:
        coord.add_per_entity_system("drift", ["Position"], drift)
    for t in range(ticks):
        if t % txn_every == 0:
            a, b = rng.sample(eids, 2)
            coord.submit(transfer_spec(a, b, 3))
        coord.tick()
    coord.quiesce()
    coord.check_invariants()
    return coord


class TestBatchFormulationEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_tuple(self, backend):
        tuple_run = run_cluster(backend, batch=False)
        batch_run = run_cluster(backend, batch=True)
        assert batch_run.migrations_done > 0
        assert batch_run.state_hash() == tuple_run.state_hash()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_randomized_seeds(self, backend):
        rng = random.Random(4071)
        for _ in range(2):
            seed = rng.randrange(1 << 16)
            tuple_run = run_cluster(backend, batch=False, ticks=25, seed=seed)
            batch_run = run_cluster(backend, batch=True, ticks=25, seed=seed)
            assert batch_run.state_hash() == tuple_run.state_hash(), seed
