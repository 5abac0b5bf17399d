"""Persistence tier: WAL, in-memory DB, checkpoint policies, recovery,
blob codecs, and the mini-SQL backing store.

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
from repro.persistence.sqlbridge import MiniSQL, SQLBackingStore
from repro.persistence.wal import WALRecord, WriteAheadLog
from repro.persistence.worldbridge import WorldPersistence, recover_world

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
    "MiniSQL",
    "SQLBackingStore",
    "WALRecord",
    "WriteAheadLog",
    "WorldPersistence",
    "recover_world",
]
