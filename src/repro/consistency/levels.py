"""Tiered consistency levels for replicated game state.

    "Sometimes this means ensuring that world is consistent at only a
    very coarse level; animation or other uncontested activity in the
    game may be out of sync between computers but the persistent game
    state is the same."

State fields are classified into tiers; each tier replicates with a
different protocol and pays a different bandwidth/staleness price:

* ``STRONG``  — replicated synchronously every change (persistent game
  state: gold, inventory, hp). Replicas never diverge.
* ``COARSE``  — replicated at a fixed cadence and quantised (positions):
  replicas agree to within the quantum, and exactly at sync points.
* ``EVENTUAL`` — replicated best-effort when bandwidth is left over
  (cosmetics, animation phase): replicas converge when updates stop.

:class:`ReplicatedField` tracks a primary value and per-replica copies,
simulating the protocol per tick and accounting bytes; experiment E7
sweeps tiers against staleness and bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.errors import NetError


class ConsistencyLevel(Enum):
    """Replication tier for one field."""

    STRONG = "strong"
    COARSE = "coarse"
    EVENTUAL = "eventual"


#: Simulated wire cost of one field update, in bytes (id + field + value).
UPDATE_BYTES = 12


@dataclass
class ReplicaStats:
    """Accounting for one replicated field across all replicas."""

    updates_sent: int = 0
    bytes_sent: int = 0
    max_staleness_ticks: int = 0
    divergence_samples: list[float] = field(default_factory=list)

    @property
    def mean_divergence(self) -> float:
        """Mean |primary - replica| over all samples (numeric fields)."""
        if not self.divergence_samples:
            return 0.0
        return sum(self.divergence_samples) / len(self.divergence_samples)


class ReplicatedField:
    """One field replicated from a primary to N replicas under a tier.

    Drive it with :meth:`write` (primary mutation) and :meth:`tick`
    (per-frame protocol step).  ``quantum`` rounds COARSE values so
    sub-quantum jitter never hits the wire; ``coarse_interval`` is the
    cadence in ticks; ``eventual_budget`` is the probability-free
    deterministic budget: one eventual update flushes every
    ``eventual_interval`` ticks only if the value changed.
    """

    def __init__(
        self,
        name: str,
        level: ConsistencyLevel,
        replicas: int,
        initial: Any = 0.0,
        quantum: float = 1.0,
        coarse_interval: int = 5,
        eventual_interval: int = 30,
    ):
        if replicas < 1:
            raise NetError("need at least one replica")
        self.name = name
        self.level = level
        self.primary: Any = initial
        self.replicas: list[Any] = [initial] * replicas
        self.quantum = quantum
        self.coarse_interval = coarse_interval
        self.eventual_interval = eventual_interval
        self.stats = ReplicaStats()
        self._dirty = False
        self._last_sync_tick = 0
        self._tick = 0

    # -- primary-side API -----------------------------------------------------------

    def write(self, value: Any) -> None:
        """Mutate the primary.

        STRONG fields propagate immediately (synchronous replication);
        other tiers mark dirty and wait for their cadence.
        """
        self.primary = value
        if self.level == ConsistencyLevel.STRONG:
            self._broadcast(value)
        else:
            self._dirty = True

    def tick(self) -> None:
        """Advance one frame of the replication protocol."""
        self._tick += 1
        if self.level == ConsistencyLevel.COARSE:
            if self._dirty and self._tick % self.coarse_interval == 0:
                self._broadcast(self._quantise(self.primary))
                self._dirty = False
        elif self.level == ConsistencyLevel.EVENTUAL:
            if self._dirty and self._tick % self.eventual_interval == 0:
                self._broadcast(self.primary)
                self._dirty = False
        if self._dirty:
            staleness = self._tick - self._last_sync_tick
            self.stats.max_staleness_ticks = max(
                self.stats.max_staleness_ticks, staleness
            )
        self._sample_divergence()

    def force_sync(self) -> None:
        """Flush regardless of tier (zone transitions, combat start)."""
        self._broadcast(self.primary)
        self._dirty = False

    # -- inspection ------------------------------------------------------------------

    def replica_value(self, index: int) -> Any:
        """Current value at one replica."""
        return self.replicas[index]

    @property
    def synchronized(self) -> bool:
        """Whether every replica currently equals the (quantised) primary."""
        target = (
            self._quantise(self.primary)
            if self.level == ConsistencyLevel.COARSE
            else self.primary
        )
        return all(r == target for r in self.replicas)

    # -- internals ------------------------------------------------------------------------

    def _broadcast(self, value: Any) -> None:
        for i in range(len(self.replicas)):
            self.replicas[i] = value
        self.stats.updates_sent += len(self.replicas)
        self.stats.bytes_sent += UPDATE_BYTES * len(self.replicas)
        self._last_sync_tick = self._tick

    def _quantise(self, value: Any) -> Any:
        if isinstance(value, (int, float)) and self.quantum > 0:
            return round(value / self.quantum) * self.quantum
        return value

    def _sample_divergence(self) -> None:
        if isinstance(self.primary, (int, float)):
            for replica in self.replicas:
                if isinstance(replica, (int, float)):
                    self.stats.divergence_samples.append(
                        abs(self.primary - replica)
                    )
