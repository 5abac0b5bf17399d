"""Row-for-row projection oracle for the durable tier.

A seeded mix of unit-of-work commits (some losing a CAS race and
retrying), outbox dispatch marks and resets, and lease
acquire/renew/release/reclaim runs against a semisync
:class:`DurableGroup`.  Afterwards the primary's SQL projection, its
standby's (built by shipping and ingesting the WAL), and a projection
rebuilt from the primary's log by ``crash()`` + ``recover()`` must hold
exactly the same rows in every table.
"""

import random
from collections import Counter

import pytest

from repro.durable import DurableGroup, LeaseTable, run_unit
from repro.errors import LeaseError

TABLES = {"entities": "entity", "outbox": "dedup", "leases": "lease_key"}


def projection(store):
    return {
        table: store.engine.execute(f"SELECT * FROM {table} ORDER BY {pk}")
        for table, pk in TABLES.items()
    }


def drive(group, seed, steps=400):
    rng = random.Random(seed)
    primary = group.primary
    leases = LeaseTable(primary)
    held = {}
    now = 0
    seen = Counter()
    for step in range(steps):
        now += rng.randint(0, 3)
        roll = rng.random()
        if roll < 0.45:
            src, dst = rng.sample(range(1, 13), 2)
            amount = rng.randint(1, 5)
            race = rng.random() < 0.3
            attempts = [0]

            def transfer(uow, src=src, dst=dst, amount=amount, race=race):
                a = uow.get(src) or {}
                b = uow.get(dst) or {}
                attempts[0] += 1
                if race and attempts[0] == 1:
                    # A competing writer commits between read and commit.
                    run_unit(primary, lambda u: u.update(src, bonus=step))
                uow.put(src, {**a, "gold": a.get("gold", 100) - amount})
                uow.put(dst, {**b, "gold": b.get("gold", 100) + amount})
                # A small key space re-emits some dedup keys: replay and
                # ingest must both drop them.
                uow.emit("transfer", entity=src, key=f"k{rng.randint(0, 60)}",
                         amount=amount)

            run_unit(primary, transfer, tick=now)
            seen["raced"] += attempts[0] > 1
        elif roll < 0.6:
            pending = primary.undispatched(limit=rng.randint(1, 6))
            primary.mark_dispatched([row["seq"] for row in pending])
            seen["marked"] += len(pending)
        elif roll < 0.63:
            seen["reset"] += primary.reset_dispatched()
        else:
            key = f"job{rng.randint(0, 7)}"
            owner = f"w{rng.randint(0, 2)}"
            op = rng.random()
            lease = held.get(key)
            try:
                if op < 0.4 or lease is None:
                    held[key] = leases.acquire(key, owner, rng.randint(4, 40), now)
                elif op < 0.7:
                    held[key] = leases.renew(lease, rng.randint(4, 40), now)
                elif op < 0.85:
                    leases.release(lease)
                    del held[key]
                    seen["released"] += 1
                else:
                    for fresh in leases.reclaim_expired(now, ttl=rng.randint(0, 4)):
                        held[fresh.key] = fresh
            except LeaseError:
                pass  # held by another owner or fenced out: both are fine
    seen.update(leases.stats())
    return seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primary_standby_and_recovered_projections_match(seed):
    group = DurableGroup(standbys=1)
    seen = drive(group, seed)
    primary, standby = group.primary, group.standbys[0]
    # The workload really exercised every path it claims to.
    assert primary.conflicts >= seen["raced"] > 0
    for path in ("marked", "reset", "acquires", "renews", "released", "reclaims"):
        assert seen[path] > 0, path

    # Dispatch marks ride the lazy group-commit cadence: make them
    # durable and ship them before comparing.
    primary.wal.flush()
    group.ship()
    live = projection(primary)
    assert all(live.values())
    assert projection(standby) == live

    primary.crash()
    primary.recover()
    assert projection(primary) == live
