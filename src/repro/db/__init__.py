"""The database facade: configurations, slotted pages, heaps, recovery."""

from .archive import ArchiveCopy, ArchiveManager
from .btree import BTree, BTreeError
from .config import (DBConfig, all_preset_names, extended_preset_names,
                     preset)
from .database import Database, LockWait, WriteCounters
from .heap import HeapFile
from .policy import RecoveryPolicy
from .recovery import RecoveryManager
from .sharded import ShardedDatabase, ShardScheduler, shard_config
from .slotted_page import PageFullError, SlottedPage
from .workers import (WorkerCrashed, WorkerShardedDatabase, make_sharded,
                      workers_enabled_by_env)

__all__ = [
    "ArchiveCopy",
    "ArchiveManager",
    "BTree",
    "BTreeError",
    "DBConfig",
    "all_preset_names",
    "extended_preset_names",
    "preset",
    "Database",
    "LockWait",
    "WriteCounters",
    "HeapFile",
    "RecoveryPolicy",
    "RecoveryManager",
    "ShardedDatabase",
    "ShardScheduler",
    "shard_config",
    "PageFullError",
    "SlottedPage",
    "WorkerCrashed",
    "WorkerShardedDatabase",
    "make_sharded",
    "workers_enabled_by_env",
]
