"""Exception hierarchy for the RDA recovery reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class.  Subsystems raise the narrowest type
that describes the failure.

Errors with multi-argument constructors define ``__reduce__`` so they
survive a pickle round trip unchanged — the worker protocol
(:mod:`repro.db.workers`) ships exceptions raised inside a shard
worker process back to the facade and re-raises them verbatim.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(ReproError):
    """Base class for disk/array level errors."""


class DiskFailedError(StorageError):
    """An I/O was issued to a disk that is in the failed state."""

    def __init__(self, disk_id: int, operation: str = "access") -> None:
        self.disk_id = disk_id
        self.operation = operation
        super().__init__(f"disk {disk_id} is failed; cannot {operation}")

    def __reduce__(self):
        return (DiskFailedError, (self.disk_id, self.operation))


class AddressError(StorageError):
    """A page number or physical address is out of range."""


class UnrecoverableDataError(StorageError):
    """Data loss: more failures than the redundancy can mask."""


class LatentSectorError(StorageError):
    """A read hit a corrupt sector (checksum mismatch)."""

    def __init__(self, disk_id: int, slot: int) -> None:
        self.disk_id = disk_id
        self.slot = slot
        super().__init__(
            f"checksum mismatch reading disk {disk_id} slot {slot}")

    def __reduce__(self):
        return (LatentSectorError, (self.disk_id, self.slot))


class BufferError_(ReproError):
    """Base class for buffer-manager errors (trailing underscore avoids
    shadowing the builtin :class:`BufferError`)."""


class BufferFullError(BufferError_):
    """No replaceable frame exists (all frames pinned)."""


class PageNotPinnedError(BufferError_):
    """An unpin/dirty call targeted a page that is not pinned."""


class TransactionError(ReproError):
    """Base class for transaction-manager errors."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back (deadlock victim or explicit abort)."""

    def __init__(self, txn_id: int, reason: str = "aborted") -> None:
        self.txn_id = txn_id
        self.reason = reason
        super().__init__(f"transaction {txn_id} {reason}")

    def __reduce__(self):
        return (TransactionAborted, (self.txn_id, self.reason))


class InvalidTransactionState(TransactionError):
    """An operation was issued against a finished or unknown transaction."""


class DeadlockError(TransactionError):
    """A lock request would close a cycle in the wait-for graph."""

    def __init__(self, txn_id: int, cycle: tuple) -> None:
        self.txn_id = txn_id
        self.cycle = cycle
        super().__init__(f"deadlock: transaction {txn_id} in cycle {cycle}")

    def __reduce__(self):
        return (DeadlockError, (self.txn_id, self.cycle))


class LockError(TransactionError):
    """Lock protocol violation (e.g. releasing a lock that is not held)."""


class LogError(ReproError):
    """Base class for write-ahead-log errors."""


class LogCorruptionError(LogError):
    """A log record failed to deserialize or the duplexed copies diverge."""


class TornRecordError(LogCorruptionError):
    """A record was cut short by crash truncation — expected data loss at
    the durable boundary, not corruption."""


class RecoveryError(ReproError):
    """Crash/media recovery could not restore a consistent state."""


class ParityGroupError(ReproError):
    """RDA parity-group protocol violation (e.g. two unlogged dirty pages)."""


class ModelError(ReproError):
    """Analytical-model parameter validation failure."""


class DatabaseClosedError(ReproError):
    """An operation on a :class:`~repro.db.Database` after its
    ``close()``."""
