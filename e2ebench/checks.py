"""Correctness checks every benchmark run must pass before it reports.

The :class:`Checker` is fed what the clients observe while the run goes
(events and delta sequence numbers) and, at the end, the cluster's and
the durable ledger's gold plus the request accounting.  ``problems()``
lists every violation; a run with any problem exits non-zero and
reports no metrics.
"""

from __future__ import annotations

from typing import Any, Mapping


class Checker:
    """Collects client-side observations and end-of-run state checks."""

    def __init__(self) -> None:
        self._problems: list[str] = []
        self._seen: dict[str, set[str]] = {}
        self._next_seq: dict[tuple[str, str], int] = {}

    def fail(self, message: str) -> None:
        """Record one violation."""
        self._problems.append(message)

    def on_event(self, client: str, dedup: str) -> None:
        """A client's decoder yielded an event with this dedup key."""
        seen = self._seen.setdefault(client, set())
        if dedup in seen:
            self.fail(f"{client} saw event {dedup!r} twice")
        seen.add(dedup)

    def on_delta(self, client: str, session: str, seq: int) -> None:
        """A client's decoder yielded a delta of ``session`` with ``seq``."""
        key = (client, session)
        expected = self._next_seq.get(key, 0)
        if seq != expected:
            self.fail(
                f"{client} session {session}: delta seq {seq}, "
                f"expected {expected}"
            )
        self._next_seq[key] = seq + 1

    def check_gold(
        self,
        cluster_gold: Mapping[int, int],
        ledger_gold: Mapping[int, int],
        total: int,
    ) -> None:
        """Gold is conserved and every avatar agrees with the ledger."""
        held = sum(cluster_gold.values())
        if held != total:
            self.fail(f"cluster holds {held} gold, expected {total}")
        for avatar in sorted(set(cluster_gold) | set(ledger_gold)):
            a, b = cluster_gold.get(avatar), ledger_gold.get(avatar)
            if a != b:
                self.fail(f"avatar {avatar}: cluster gold {a}, ledger gold {b}")

    def check_requests(
        self, requests: list[Any], gateway_inputs: int, submitted: int
    ) -> None:
        """Every input sent reached the cluster and was answered once.

        ``requests`` are all inputs the clients sent; ``gateway_inputs``
        is the gateway's input counter and ``submitted`` the trades the
        host handed to the cluster, over the same span.  Every request
        must be decided, answered at most once, and answered exactly
        once unless its client was detached before the answer.
        """
        sent = len(requests)
        if gateway_inputs != sent:
            self.fail(f"{sent} inputs sent, the gateway took {gateway_inputs}")
        if submitted != sent:
            self.fail(f"{sent} inputs sent, {submitted} reached the cluster")
        for req in requests:
            if req.answers > 1:
                self.fail(f"request {req.key} answered {req.answers} times")
            if not req.decided:
                self.fail(f"request {req.key} was never decided")
            elif not req.detached and req.answers != 1:
                self.fail(f"decided request {req.key} was not answered")

    def problems(self) -> list[str]:
        """Every violation recorded so far."""
        return list(self._problems)
