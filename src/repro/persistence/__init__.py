"""Persistence tier: WAL, in-memory DB, checkpoint policies, recovery,
blob codecs, and the SQL backing store over stdlib ``sqlite3``.

Schema migration of structured rows lives in :mod:`repro.schema`
(``world.catalog``); the blob codec here is its lazy-upgrade
alternative (experiment E9)."""

from repro.persistence.blob import (
    BlobCodec,
    blob_size,
    decode_record,
    encode_record,
)
from repro.persistence.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    CheckpointStats,
    EventDrivenPolicy,
    HybridPolicy,
    IntervalPolicy,
    SnapshotStore,
)
from repro.persistence.memdb import Action, InMemoryGameDB
from repro.persistence.pages import (
    PAGE_SIZE,
    BufferPool,
    PagedBackingStore,
    PagedRecordStore,
    Pager,
)
from repro.persistence.recovery import RecoveryReport, recover, verify_recovery
from repro.persistence.sqlbridge import SQLBackingStore, SQLEngine
from repro.persistence.wal import WALRecord, WriteAheadLog

__all__ = [
    "BlobCodec",
    "blob_size",
    "decode_record",
    "encode_record",
    "CheckpointManager",
    "CheckpointPolicy",
    "CheckpointStats",
    "EventDrivenPolicy",
    "HybridPolicy",
    "IntervalPolicy",
    "SnapshotStore",
    "Action",
    "InMemoryGameDB",
    "PAGE_SIZE",
    "BufferPool",
    "PagedBackingStore",
    "PagedRecordStore",
    "Pager",
    "RecoveryReport",
    "recover",
    "verify_recovery",
    "SQLBackingStore",
    "SQLEngine",
    "WALRecord",
    "WriteAheadLog",
]
