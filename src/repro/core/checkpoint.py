"""Checkpointing disciplines (paper Section 2, "Checkpointing Schemes").

* **TOC** (transaction-oriented): every commit propagates the
  transaction's pages — this is just the FORCE discipline at EOT, so it
  needs no separate machinery; the paper models it with checkpoint cost
  ``c_c = 0``.
* **ACC** (action-consistent): taken between update statements; flushes
  the dirty buffer pages and writes a checkpoint record carrying the
  transaction table (the transactions active at the checkpoint, their
  BOT LSNs, the next transaction id).  Crash recovery REDOes committed
  work from the last checkpoint record forward, and the record is
  appended as the log's restart *anchor*: once it is durable, analysis
  reads the log from there on and the table for what came before
  (:meth:`~repro.wal.log.LogManager.append_anchor`).

:class:`ACCCheckpointer` is dependency-injected (flush / log / active-set
callables) so it can be unit-tested without a full database; the
:class:`~repro.db.database.Database` wires the real ones in.  It also
tracks work done since the last checkpoint so a driver can checkpoint
every *I* cost units — the model's checkpoint interval.
"""

from __future__ import annotations

from ..obs.tracer import NULL_TRACER
from ..wal.records import CheckpointRecord


class ACCCheckpointer:
    """Action-consistent checkpoint generator.

    Args:
        flush_dirty: zero-arg callable flushing every dirty buffer page;
            returns the flushed page ids.
        append_anchor: callable taking the checkpoint record, appending
            it to the (redo) log as the restart anchor and forcing it;
            returns the LSN.
        transaction_table: zero-arg callable returning ``(active txn
            ids, their BOT LSNs (0 = none yet), next txn id)`` right now
            (the checkpoint is action-consistent, not
            transaction-consistent, so the active set may be non-empty).
        interval: cost units between automatic checkpoints (the model's
            ``I``); None disables :meth:`maybe_checkpoint`.
        tracer: event tracer; each checkpoint becomes a ``checkpoint``
            span carrying the flushed-page count and (with ``stats``)
            the transfers it cost.
        stats: shared page-transfer counters to bind to checkpoint spans.
        metrics: optional registry for ``checkpoint.taken``.
        on_checkpoint: optional callable invoked with the checkpoint
            record's LSN after each checkpoint (the database's
            conformance barrier).
    """

    def __init__(self, flush_dirty, append_anchor, transaction_table,
                 interval: float | None = None, tracer=None, stats=None,
                 metrics=None, on_checkpoint=None) -> None:
        self._flush_dirty = flush_dirty
        self._append_anchor = append_anchor
        self._transaction_table = transaction_table
        self._on_checkpoint = on_checkpoint
        self.interval = interval
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._stats = stats
        self._m_taken = (metrics.counter("checkpoint.taken")
                         if metrics is not None else None)
        self._work_since = 0.0
        self.checkpoints_taken = 0
        self.last_checkpoint_lsn = None

    def checkpoint(self) -> int:
        """Take a checkpoint now; returns the checkpoint record's LSN."""
        with self.tracer.span("checkpoint", stats=self._stats) as span:
            flushed = tuple(self._flush_dirty())
            active, bots, next_id = self._transaction_table()
            record = CheckpointRecord(txn_id=0, active_txns=tuple(active),
                                      flushed_pages=flushed,
                                      bot_lsns=tuple(bots),
                                      next_txn_id=next_id)
            lsn = self._append_anchor(record)
            span.set(flushed=len(flushed), lsn=lsn)
        if self._m_taken is not None:
            self._m_taken.inc()
        self.checkpoints_taken += 1
        self.last_checkpoint_lsn = lsn
        self._work_since = 0.0
        if self._on_checkpoint is not None:
            self._on_checkpoint(lsn)
        return lsn

    def note_work(self, cost_units: float) -> None:
        """Accumulate work toward the next automatic checkpoint."""
        self._work_since += cost_units

    def maybe_checkpoint(self) -> int | None:
        """Checkpoint if the configured interval has elapsed.

        Returns the LSN if a checkpoint was taken, else None.
        """
        if self.interval is None or self._work_since < self.interval:
            return None
        return self.checkpoint()
