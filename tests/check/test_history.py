"""History recording and serialization."""

import pytest

from repro.check import History, HistoryEvent, HistoryRecorder
from repro.db import Database, preset
from repro.storage import make_page


class TestHistoryEvent:
    def test_round_trip(self):
        event = HistoryEvent(seq=3, op="steal", txn=7, page=2,
                             extra=(("logged", True),))
        assert HistoryEvent.from_dict(event.to_dict()) == event

    def test_to_dict_omits_none(self):
        event = HistoryEvent(seq=0, op="crash")
        assert event.to_dict() == {"seq": 0, "op": "crash"}

    def test_extra_lookup(self):
        event = HistoryEvent(seq=0, op="steal", extra=(("logged", False),))
        assert event.get("logged") is False
        assert event.get("missing", 42) == 42

    def test_recorder_rejects_unknown_op(self):
        with pytest.raises(ValueError):
            HistoryRecorder().record("tickle")


class TestHistoryContainer:
    def test_json_round_trip(self):
        recorder = HistoryRecorder()
        recorder.record("begin", txn=1)
        recorder.record("write", txn=1, page=0)
        recorder.record("commit", txn=1)
        history = recorder.history
        assert History.from_json(history.to_json()) == history

    def test_queries(self):
        recorder = HistoryRecorder()
        recorder.record("begin", txn=1)
        recorder.record("begin", txn=2)
        recorder.record("commit", txn=1)
        recorder.record("abort", txn=2)
        history = recorder.history
        assert history.committed_txns() == {1}
        assert history.aborted_txns() == {2}
        assert history.txns() == {1, 2}
        assert len(history.of_op("begin")) == 2


class TestDatabaseRecording:
    def test_page_mode_operations_recorded(self):
        recorder = HistoryRecorder()
        db = Database(preset("page-force-rda", group_size=5, num_groups=12,
                             buffer_capacity=4), history=recorder)
        t = db.begin()
        db.write_page(t, 0, make_page(b"a"))
        db.read_page(t, 1)
        db.buffer.flush_pages_of(t)     # forces a steal
        db.commit(t)
        ops = [e.op for e in recorder.history]
        assert ops[0] == "begin"
        assert "write" in ops and "read" in ops
        assert "steal" in ops and "flip" in ops
        assert ops[-1] == "commit"
        steal = recorder.history.of_op("steal")[0]
        assert steal.txn == t and steal.page == 0
        assert steal.get("logged") is False

    def test_crash_restart_recorded(self):
        recorder = HistoryRecorder()
        db = Database(preset("page-force-rda", group_size=5, num_groups=12,
                             buffer_capacity=4), history=recorder)
        t = db.begin()
        db.write_page(t, 0, make_page(b"a"))
        db.crash()
        db.recover()
        ops = [e.op for e in recorder.history]
        assert ops[-2:] == ["crash", "restart"]

    def test_seq_strictly_increasing(self):
        recorder = HistoryRecorder()
        db = Database(preset("record-noforce-rda", group_size=5,
                             num_groups=12, buffer_capacity=20),
                      history=recorder)
        db.format_record_pages(range(4))
        t = db.begin()
        db.insert_record(t, 0, b"x")
        db.read_record(t, 0, 0)
        db.commit(t)
        seqs = [e.seq for e in recorder.history]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        read = recorder.history.of_op("read")[0]
        assert read.slot == 0

