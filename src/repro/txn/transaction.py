"""Transactions.

A :class:`Transaction` records what the recovery protocols need: its
lifecycle state, the pages it has written and which of them have been
*stolen* to disk, under record logging the record-level writes, and the
undo/redo information it holds in main memory until EOT.  The object
is bookkeeping only; commit/abort work is orchestrated by the recovery
manager.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class TxnState(Enum):
    """Lifecycle of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """One transaction's bookkeeping.

    Attributes:
        txn_id: unique id, also used to stamp parity twins and log records.
        state: current :class:`TxnState`.
        pages_written: logical pages with uncommitted modifications.
        pages_stolen: written pages that have reached disk before EOT.
        records_written: ``(page, slot)`` pairs under record logging.
        before_images: page -> the page's bytes before this
            transaction's first write to it (page logging).
        undo_logged: pages whose before-image is in the undo log.
        logged_stolen: pages stolen *with* undo logging.
        pending_undo: record before-entries not yet in the log (RDA
            defers them until a steal the twins cannot cover).
        pending_redo: record redo entries staged for the commit-time
            chain append (REDO-only class).
        bot_lsn: LSN of the BOT record, None until the first update
            writes one.
        must_commit: set when a media failure destroyed the parity-encoded
            before-image of one of this transaction's stolen pages (see
            ``TwinParityArray.rebuild_disk(on_lost_undo="adopt")``);
            aborting is no longer possible.
    """

    txn_id: int
    state: TxnState = TxnState.ACTIVE
    pages_written: set = field(default_factory=set)
    pages_stolen: set = field(default_factory=set)
    records_written: set = field(default_factory=set)
    before_images: dict = field(default_factory=dict)
    undo_logged: set = field(default_factory=set)
    logged_stolen: set = field(default_factory=set)
    pending_undo: list = field(default_factory=list)
    pending_redo: list = field(default_factory=list)
    bot_lsn: int | None = None
    must_commit: bool = False

    @property
    def is_active(self) -> bool:
        """True while neither committed nor aborted."""
        return self.state is TxnState.ACTIVE

    @property
    def is_update_transaction(self) -> bool:
        """True if it wrote anything (the model's update fraction f_u)."""
        return bool(self.pages_written or self.records_written)

    def note_write(self, page: int) -> None:
        """Record a page modification."""
        self.pages_written.add(page)

    def note_record_write(self, page: int, slot: int) -> None:
        """Record a record-level modification (record logging mode)."""
        self.records_written.add((page, slot))
        self.pages_written.add(page)

    def note_steal(self, page: int) -> None:
        """Record that a modified page was written to disk before EOT."""
        self.pages_stolen.add(page)
