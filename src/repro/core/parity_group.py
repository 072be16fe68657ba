"""Parity-group state machine and the Dirty_Set table (paper Figure 3).

A parity group is **clean** when no page in it has been written to disk
by an uncommitted transaction without UNDO logging, and **dirty** when
exactly one such page has.  The paper keeps a main-memory table — the
*Dirty_Set* — holding, for each dirty group, the page that dirtied it
(only ``log N`` bits per group) plus one bit naming the working parity
twin.  This module is that table, extended with the owning transaction
and the working twin's timestamp, which the recovery and rebuild paths
need.

The transition rules (Figure 3):

* clean --(uncommitted page D_i stolen, unlogged)--> dirty(i)
* dirty(i) --(same transaction re-steals D_i)--> dirty(i)   (still unlogged)
* dirty(i) --(owning transaction commits or aborts)--> clean
* while dirty(i), any *other* page written back must be UNDO-logged
  first (:meth:`DirtySet.can_write_without_undo` answers this).
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from ..errors import ParityGroupError


class DirtyEntry(NamedTuple):
    """One dirty group's bookkeeping.  Immutable; a named tuple because
    one is built for every unlogged steal.

    Attributes:
        group: the parity group id.
        txn_id: the transaction whose unlogged stolen page dirtied it.
        page_id: the logical page written back without UNDO logging.
        page_index: the page's index within the group (what the paper
            stores in log N bits).
        working_twin: which twin (0/1) holds the working parity.
        working_timestamp: the stamp on the working twin.
    """

    group: int
    txn_id: int
    page_id: int
    page_index: int
    working_twin: int
    working_timestamp: int


new_entry = partial(tuple.__new__, DirtyEntry)
"""``new_entry((group, txn_id, page_id, page_index, working_twin,
working_timestamp))``: a :class:`DirtyEntry` from all six fields, built
in C, with no frame for the named tuple's forwarding ``__new__`` — what
every unlogged steal records."""


class DirtySet(dict):
    """Main-memory table of dirty parity groups (the paper's Dirty_Set):
    a dict, group -> :class:`DirtyEntry`, so the Figure 3 question —
    ``get(group)`` — and the steal that records its answer —
    ``table[group] = entry`` — are one lookup each.  ``by_txn`` maps a
    transaction to the groups it owns; a writer that stores an entry for
    a new owner adds the group there too (:meth:`mark_dirty` does both,
    and checks the rule first)."""

    def __init__(self) -> None:
        super().__init__()
        self.by_txn: dict = {}

    def is_dirty(self, group: int) -> bool:
        """True when the group has an unlogged uncommitted page on disk."""
        return group in self

    def entry(self, group: int) -> DirtyEntry:
        """The group's :class:`DirtyEntry`.

        Raises:
            ParityGroupError: if the group is clean.
        """
        try:
            return self[group]
        except KeyError:
            raise ParityGroupError(f"group {group} is clean") from None

    def can_write_without_undo(self, group: int, page_id: int,
                               txn_id: int) -> bool:
        """The paper's write-back rule: no UNDO logging is needed iff the
        group is clean, or it is dirty *for this very page by this very
        transaction* (the re-steal self-loop of Figure 3)."""
        entry = self.get(group)
        if entry is None:
            return True
        return entry.page_id == page_id and entry.txn_id == txn_id

    def mark_dirty(self, entry: DirtyEntry) -> None:
        """Record a clean-to-dirty transition (or refresh a re-steal).

        Raises:
            ParityGroupError: on an illegal second unlogged page — the
                invariant is one unlogged page per group.
        """
        existing = self.get(entry.group)
        if existing is not None and (existing.page_id != entry.page_id
                                     or existing.txn_id != entry.txn_id):
            raise ParityGroupError(
                f"group {entry.group} already dirty with page "
                f"{existing.page_id} (txn {existing.txn_id}); cannot add "
                f"page {entry.page_id} (txn {entry.txn_id}) unlogged"
            )
        self[entry.group] = entry
        if existing is None:
            self.by_txn.setdefault(entry.txn_id, set()).add(entry.group)

    def clean(self, group: int) -> DirtyEntry:
        """Remove a group from the table (commit, abort, or promotion).

        Returns the entry that was removed.
        """
        entry = self.pop(group, None)
        if entry is None:
            raise ParityGroupError(f"group {group} is clean")
        owned = self.by_txn.get(entry.txn_id)
        if owned is not None:
            owned.discard(group)
            if not owned:
                del self.by_txn[entry.txn_id]
        return entry

    def groups_of(self, txn_id: int) -> list:
        """Sorted dirty groups owned by a transaction."""
        return sorted(self.by_txn.get(txn_id, ()))

    def entries(self) -> list:
        """All entries, sorted by group."""
        return [self[g] for g in sorted(self)]

    def lose_memory(self) -> None:
        """Crash: the main-memory table vanishes (rebuilt by scanning
        the parity twins, Section 4.3)."""
        self.clear()
        self.by_txn.clear()
