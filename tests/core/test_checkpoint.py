"""Tests for the ACC checkpointer."""

from repro.core import ACCCheckpointer
from repro.wal.records import CheckpointRecord


class Harness:
    def __init__(self):
        self.flushes = 0
        self.records = []
        self.active = [3, 4]
        self.lsn = 0
        self.declared = []

    def flush(self):
        self.flushes += 1
        return [10, 11]

    def append_anchor(self, record):
        self.lsn += 1
        record.lsn = self.lsn
        self.records.append(record)
        self.declared.append(self.lsn)
        return self.lsn

    def table(self):
        return list(self.active), [7, 0], 9

    def make(self, interval=None):
        return ACCCheckpointer(self.flush, self.append_anchor, self.table,
                               interval=interval)


class TestCheckpoint:
    def test_checkpoint_flushes_and_logs(self):
        h = Harness()
        cp = h.make()
        lsn = cp.checkpoint()
        assert h.flushes == 1
        assert lsn == 1
        record = h.records[0]
        assert isinstance(record, CheckpointRecord)
        assert record.active_txns == (3, 4)
        assert record.flushed_pages == (10, 11)
        assert record.transaction_table == ({3: 7, 4: 0}, 9)
        assert cp.checkpoints_taken == 1
        assert cp.last_checkpoint_lsn == 1

    def test_the_forced_record_is_declared_the_anchor(self):
        h = Harness()
        cp = h.make()
        assert cp.checkpoint() == 1 and h.declared == [1]

    def test_interval_triggering(self):
        h = Harness()
        cp = h.make(interval=100)
        cp.note_work(60)
        assert cp.maybe_checkpoint() is None
        cp.note_work(50)
        assert cp.maybe_checkpoint() == 1
        # counter reset after the checkpoint
        assert cp.maybe_checkpoint() is None

    def test_disabled_interval_never_fires(self):
        h = Harness()
        cp = h.make(interval=None)
        cp.note_work(1e9)
        assert cp.maybe_checkpoint() is None

    def test_manual_checkpoint_resets_counter(self):
        h = Harness()
        cp = h.make(interval=100)
        cp.note_work(90)
        cp.checkpoint()
        cp.note_work(90)
        assert cp.maybe_checkpoint() is None
