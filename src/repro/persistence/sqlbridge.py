"""The SQL backend: stdlib ``sqlite3`` standing in for the commercial one.

    "MMOs use commercial databases for persistence and to recover from
    server crashes. … they need to ensure that the bridge between the
    client software and the SQL code is robust enough to handle changes
    in each."

:class:`SQLEngine` is a thin adapter over an in-memory ``sqlite3``
connection in autocommit mode.  It keeps the bridge's two robustness
properties: statements take ``?`` parameters, which are bound as data
and never parsed as SQL, and every table is created ``STRICT``, so a
typed column rejects a smuggled value instead of storing it.  Any
``sqlite3.Error`` surfaces as the typed :class:`~repro.errors.SQLError`.

:class:`SQLBackingStore` implements the :class:`~repro.persistence.
checkpoint.BackingStore` protocol over the engine, so checkpoints
genuinely flow through SQL — as the tutorial describes.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Any, Iterable

from repro.errors import SQLError


class SQLEngine:
    """The engine: ``execute(sql, params)`` returns result rows as dicts."""

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:", isolation_level=None)
        self.statements_executed = 0
        #: Rows affected by the most recent INSERT/UPDATE/DELETE (rows
        #: returned, for SELECT) — the signal optimistic CAS reads to
        #: learn whether its guarded UPDATE actually landed.
        self.rowcount = 0

    def execute(
        self, sql: str, params: Iterable[Any] = ()
    ) -> list[dict[str, Any]]:
        """Run one statement; SELECTs return rows, others return []."""
        self.statements_executed += 1
        if sql.lstrip()[:12].upper() == "CREATE TABLE":
            sql += " STRICT"  # typed columns refuse wrong-typed values
        try:
            cur = self._db.execute(sql, tuple(params))
            rows = cur.fetchall()
        except sqlite3.Error as exc:
            raise SQLError(str(exc)) from exc
        if cur.description is None:
            self.rowcount = max(cur.rowcount, 0)
            return []
        self.rowcount = len(rows)
        names = [d[0] for d in cur.description]
        return [dict(zip(names, row)) for row in rows]

    def table_names(self) -> list[str]:
        """All table names."""
        return [
            name
            for (name,) in self._db.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "ORDER BY name"
            )
        ]

    def row_count(self, table: str) -> int:
        """Rows in one table."""
        quoted = table.replace('"', '""')
        try:
            return self._db.execute(
                f'SELECT COUNT(*) FROM "{quoted}"'
            ).fetchone()[0]
        except sqlite3.Error as exc:
            raise SQLError(str(exc)) from exc


class SQLBackingStore:
    """Checkpoint store writing through the SQL engine.

    Snapshots are stored as rows in a ``checkpoints`` table, newest wins —
    the shape of a real game's persistence bridge (serialize, INSERT,
    SELECT latest on recovery).
    """

    def __init__(self, engine: SQLEngine | None = None):
        self.engine = engine or SQLEngine()
        if "checkpoints" not in self.engine.table_names():
            self.engine.execute(
                "CREATE TABLE checkpoints (seq INTEGER PRIMARY KEY, body TEXT)"
            )
        self._seq = 0

    def store_checkpoint(self, snapshot: dict[str, Any]) -> int:
        """Serialize + INSERT; returns bytes written."""
        self._seq += 1
        body = json.dumps(snapshot, sort_keys=True, default=_store_default)
        self.engine.execute(
            "INSERT INTO checkpoints (seq, body) VALUES (?, ?)",
            (self._seq, body),
        )
        return len(body)

    def load_checkpoint(self) -> dict[str, Any] | None:
        """SELECT the newest snapshot and deserialize it."""
        rows = self.engine.execute(
            "SELECT body FROM checkpoints ORDER BY seq DESC LIMIT 1"
        )
        if not rows:
            return None
        return json.loads(rows[0]["body"], object_hook=_store_hook)


def _store_default(obj: Any) -> Any:
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    raise TypeError(f"not serializable: {type(obj).__name__}")


def _store_hook(obj: dict) -> Any:
    if set(obj) == {"__bytes__"}:
        return bytes.fromhex(obj["__bytes__"])
    return obj
