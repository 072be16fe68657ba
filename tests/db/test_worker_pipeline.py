"""One-way commands on proven-free locks: the worker transport's pipeline.

The transport sends ``begin`` and ``write_page`` without waiting for an
answer exactly when it can prove, from the commands it has already
carried, that the command can neither wait for a lock nor be refused
(see ``repro.db.workers``).  These tests pin the proof's two sides — a
contended write still blocks and raises from the call itself, an
uncontended one costs no round trip — and the contract for what a
one-way command can still hit: a worker's death, a storage fault.
"""

import dataclasses
import json

import pytest

from repro.check import HistoryRecorder
from repro.db import (LockWait, ShardedDatabase, WorkerCrashed,
                      WorkerShardedDatabase, preset, verify_database)
from repro.db import workers as workers_module
from repro.errors import (BufferFullError, InvalidTransactionState,
                          StorageError)
from repro.sim import Simulator, WorkloadSpec
from repro.storage.page import make_page

OVERRIDES = dict(group_size=5, num_groups=12, buffer_capacity=16)

CONTENDED = WorkloadSpec(concurrency=4, pages_per_txn=5,
                         update_txn_fraction=0.8, update_probability=0.9,
                         abort_probability=0.05, communality=0.9)


def build(name="page-force-rda", shards=2, flush_horizon=8, **kwargs):
    return WorkerShardedDatabase(preset(name, **OVERRIDES), shards=shards,
                                 flush_horizon=flush_horizon, **kwargs)


@pytest.fixture
def round_trips(monkeypatch):
    """Counts ``_WorkerHandle.recv`` calls — what the ledger reports as
    ``db.workers.round_trips_per_txn``."""
    counted = []
    recv = workers_module._WorkerHandle.recv

    def counting(self, op):
        counted.append((self.shard, op))
        return recv(self, op)

    monkeypatch.setattr(workers_module._WorkerHandle, "recv", counting)
    return counted


# -- (a) contention: the blocking path, byte for byte -------------------------


def test_contended_write_raises_from_the_call_and_retries():
    """A write to a page another live transaction has read or written
    is not provably free: it stays a blocking call, raises LockWait
    itself and succeeds once the lock is granted."""
    with build() as db:
        reader, writer, late = db.begin(), db.begin(), db.begin()
        db.read_page(reader, 4)
        db.write_page(writer, 6, make_page(b"mine"))
        with pytest.raises(LockWait):
            db.write_page(writer, 4, make_page(b"w"))   # behind an S lock
        with pytest.raises(LockWait):
            db.write_page(late, 6, make_page(b"l"))     # behind an X lock
        assert not db.grants_for(writer)
        db.commit(reader)
        assert db.grants_for(writer)
        db.write_page(writer, 4, make_page(b"w"))
        db.commit(writer)
        assert db.grants_for(late)
        db.write_page(late, 6, make_page(b"l"))
        db.commit(late)
        assert db.committed_view(4) == make_page(b"w")
        assert db.committed_view(6) == make_page(b"l")
        assert verify_database(db) == []


def one_run(cls, name, shards, crash_every):
    recorder = HistoryRecorder()
    db = cls(preset(name, **OVERRIDES), shards=shards, flush_horizon=4,
             history=recorder)
    try:
        report = Simulator(db, CONTENDED, seed=23).run(
            40, crash_every=crash_every)
        problems = verify_database(db)
    finally:
        if hasattr(db, "close"):
            db.close()
    return (json.dumps(dataclasses.asdict(report), sort_keys=True),
            recorder.history.to_json(), problems)


@pytest.mark.parametrize("crash_every", [None, 9])
@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("name", ["page-force-rda", "page-noforce-rda"])
def test_contended_workload_is_byte_identical(name, shards, crash_every,
                                              round_trips):
    """communality 0.9: most references hit pages another client holds,
    so one-way and blocking writes interleave on the same pages."""
    inproc = one_run(ShardedDatabase, name, shards, crash_every)
    worker = one_run(WorkerShardedDatabase, name, shards, crash_every)
    answered = [op for _, op in round_trips].count("write_page")
    written = worker[1].count('"write"')
    assert 0 < answered < written       # both paths were taken
    assert inproc[0] == worker[0], "SimulationReport diverged"
    assert inproc[1] == worker[1], "recorded history diverged"
    assert inproc[2] == worker[2] == []


# -- (b) a death nobody was waiting on ----------------------------------------


def test_sigkill_with_one_way_writes_unanswered():
    with build("page-noforce-rda") as db:
        done = db.begin()
        db.write_page(done, 0, make_page(b"a"))
        db.write_page(done, 1, make_page(b"b"))
        db.commit(done)
        lost = db.begin()
        for page in (1, 3, 5):
            db.write_page(lost, page, make_page(b"lost"))   # unanswered
        db.supervisor.kill(1)
        with pytest.raises(WorkerCrashed) as excinfo:
            db.read_page(lost, 1)
        assert excinfo.value.shard == 1
        db.crash()
        recovery = db.recover()
        assert done in recovery["winners"] and lost not in recovery["winners"]
        assert db.committed_view(0) == make_page(b"a")
        assert db.committed_view(1) == make_page(b"b")
        for page in (3, 5):
            assert db.committed_view(page) == make_page(b"")
        assert verify_database(db) == []
        assert db.worker_deaths == 1
        # the filter died with the crash: the page is free again
        again = db.begin()
        db.write_page(again, 1, make_page(b"c"))
        db.commit(again)
        assert db.committed_view(1) == make_page(b"c")


# -- (c) a one-way write that fails in the worker -----------------------------


def _break_shard_1(db):
    """A double media failure on shard 1: a buffer miss there cannot be
    served any more."""
    for disk in range(db.disks_per_shard, db.disks_per_shard + 3):
        db.media_failure(disk)


def test_failed_one_way_write_is_held_against_its_transaction():
    with build() as db:
        _break_shard_1(db)
        doomed, quitter, bystander = db.begin(), db.begin(), db.begin()
        db.write_page(doomed, 1, make_page(b"x"))       # fails, unanswered
        db.write_page(quitter, 11, make_page(b"y"))     # fails, unanswered
        db.write_page(bystander, 0, make_page(b"z"))
        # the shard refuses to commit a transaction whose write it lost
        with pytest.raises(StorageError):
            db.commit(doomed)
        assert db.shards[1].txn_flags(doomed)["is_active"]
        # that reply reported the other failure too: the facade raises
        # it from the transaction's next call on the shard, unsent
        sent = len(db.supervisor.handles[1].journal)
        with pytest.raises(StorageError):
            db.write_page(quitter, 13, make_page(b"y"))
        assert len(db.supervisor.handles[1].journal) == sent
        db.abort(quitter)                               # clears the hold
        with pytest.raises(InvalidTransactionState):
            db.shards[1].commit(quitter)
        db.commit(bystander)                            # unaffected
        assert db.committed_view(0) == make_page(b"z")
        db.shards[1].abort(doomed)
        assert db.shards[1].active_txns() == []


# -- (d) the round-trip budget ------------------------------------------------


@pytest.mark.parametrize("flush_horizon", [1, 8])
def test_round_trip_budget(round_trips, flush_horizon):
    """Exact counts: an uncontended transaction pays for its reads and
    for one commit scatter — also when that commit carries the horizon
    flush (H = 1: every commit does)."""
    with build(flush_horizon=flush_horizon) as db:
        def cost(body) -> int:
            before = len(round_trips)
            body()
            return len(round_trips) - before

        def six_writes(reads=0):
            txn = db.begin()
            for page in range(6):
                db.write_page(txn, page, make_page(b"%d" % txn))
            for page in range(reads):
                db.read_page(txn, page)
            db.commit(txn)

        assert cost(six_writes) == 2                    # the commit scatter
        assert cost(lambda: six_writes(reads=3)) == 2 + 3

        def contended():
            holder, txn = db.begin(), db.begin()
            assert cost(lambda: db.read_page(holder, 7)) == 1
            with pytest.raises(LockWait):
                db.write_page(txn, 7, make_page(b"c"))  # answered: +1
            db.write_page(txn, 8, make_page(b"c"))      # free: +0
            db.abort(txn)
            db.commit(holder)
        assert cost(contended) == 1 + 1 + 2 + 2
        assert verify_database(db) == []


def test_a_pinned_id_that_may_be_spent_is_a_blocking_begin(round_trips):
    with build(shards=2) as db:
        assert db.begin(txn_id=40) == 40
        assert round_trips == []                        # fresh: one-way
        db.commit(40)
        with pytest.raises(InvalidTransactionState):
            db.begin(txn_id=40)
        # below a carried id: not provably unspent, so the shards answer
        assert db.begin(txn_id=7) == 7
        assert [op for _, op in round_trips].count("begin") == 4
        assert db.begin() == 41
        assert [op for _, op in round_trips].count("begin") == 4


def test_nothing_is_one_way_under_no_steal(round_trips):
    """NO-STEAL can refuse a write with BufferFullError — an error the
    caller handles at that call, so every command is answered."""
    config = dataclasses.replace(preset("page-force-rda", **OVERRIDES),
                                 steal=False, buffer_capacity=4)
    with WorkerShardedDatabase(config, shards=2) as db:
        txn = db.begin()
        assert len(round_trips) == 2
        with pytest.raises(BufferFullError):
            for page in range(0, 12, 2):
                db.write_page(txn, page, make_page(b"n"))
        assert len(round_trips) == 2 + 3    # two fit, the third is refused
        db.abort(txn)


def test_malformed_writes_raise_at_the_call():
    """What a one-way send must not swallow is checked facade-side; the
    rest stays a blocking call."""
    with build() as db:
        txn = db.begin()
        with pytest.raises(ValueError):
            db.write_page(txn, 0, b"short")
        with pytest.raises(InvalidTransactionState):
            db.write_page(99, 0, make_page(b"x"))
        db.commit(txn)
        with pytest.raises(InvalidTransactionState):
            db.write_page(txn, 0, make_page(b"x"))
