"""Worker-death faults: the crash-propagation contract.

A shard worker can die at the worst possible moments — mid
commit-window, mid batched flush, or just SIGKILLed between commands.
The contract (see ``docs/architecture.md``): the supervisor respawns
the dead worker and replays its command journal, so every journaled
command — including the one in flight — has fully executed on the
healed engine; the interrupted facade call raises
:class:`WorkerCrashed`; the driver treats that as a crash signal
(``crash()`` + ``recover()``) and resolves any in-doubt commit against
the recovered winner set.  Cross-shard atomicity holds throughout:
journal-at-send makes a scatter command all-or-nothing, so no shard can
commit a transaction the others never saw.
"""

import pytest

from repro.db import (WorkerCrashed, WorkerShardedDatabase, preset,
                      verify_database)
from repro.storage.page import make_page

OVERRIDES = dict(group_size=5, num_groups=12, buffer_capacity=16)


def build(name="page-noforce-rda", shards=2, flush_horizon=2):
    return WorkerShardedDatabase(preset(name, **OVERRIDES), shards=shards,
                                 flush_horizon=flush_horizon)


def test_sigkill_idle_worker_raises_then_heals():
    """A SIGKILLed worker surfaces as WorkerCrashed on the next call;
    after the crash-contract dance, nothing committed is lost."""
    with build() as db:
        t = db.begin()
        db.write_page(t, 0, make_page(b"a"))
        db.write_page(t, 1, make_page(b"b"))
        db.commit(t)
        db.supervisor.kill(1)
        with pytest.raises(WorkerCrashed) as excinfo:
            db.begin()
        assert excinfo.value.shard == 1
        db.crash()
        recovery = db.recover()
        assert t in recovery["winners"]
        assert db.committed_view(0) == make_page(b"a")
        assert db.committed_view(1) == make_page(b"b")
        assert verify_database(db) == []
        assert db.worker_deaths == 1


@pytest.mark.parametrize("when", ["before_commit", "after_commit"])
def test_worker_death_mid_commit_window(when):
    """Death inside the commit window, before or after the shard commit
    lands.  Either way journal replay makes the commit execute on the
    healed worker, so the in-doubt transaction resolves to a winner on
    *every* shard — RDA commit processing destroys undo, so a torn
    cross-shard commit would be unrecoverable; the journal makes it
    impossible instead."""
    with build() as db:
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.write_page(t, 1, make_page(b"y"))
        db.supervisor.arm_death(1, when)
        with pytest.raises(WorkerCrashed):
            db.commit(t)
        db.crash()
        recovery = db.recover()
        assert t in recovery["winners"]
        assert t not in recovery["losers"]
        assert db.committed_view(0) == make_page(b"x")
        assert db.committed_view(1) == make_page(b"y")
        assert verify_database(db) == []
        assert db.worker_deaths == 1


def test_worker_death_mid_flush_drain_finishes_the_job():
    """Death halfway through a batched group-commit flush: one pending
    log forced, the rest torn.  The healed worker's journal replay
    completes the flush (the PR-8 drain contract: acknowledged commits
    stay durable), so both horizon-batched transactions survive."""
    with build(flush_horizon=2) as db:
        t1 = db.begin()
        db.write_page(t1, 0, make_page(b"p"))
        db.write_page(t1, 1, make_page(b"q"))
        db.commit(t1)                       # under the horizon: no flush
        db.supervisor.arm_death(0, "mid_flush")
        t2 = db.begin()
        db.write_page(t2, 2, make_page(b"r"))
        db.write_page(t2, 3, make_page(b"s"))
        with pytest.raises(WorkerCrashed):
            db.commit(t2)                   # horizon flush hits the bomb
        db.crash()
        recovery = db.recover()
        assert t1 in recovery["winners"]
        assert t2 in recovery["winners"]
        for page, payload in [(0, b"p"), (1, b"q"), (2, b"r"), (3, b"s")]:
            assert db.committed_view(page) == make_page(payload)
        assert verify_database(db) == []
        assert db.worker_deaths == 1


def test_scatter_death_is_all_or_nothing():
    """A command that kills one worker still lands on every shard: the
    journal was appended before the send, so the healed worker replays
    it.  No cross-shard divergence is possible.

    The scattered ``begin`` is one-way, so nobody is waiting for an
    answer when worker 0 dies under it: the death is reported by the
    next reply read from that handle."""
    with build() as db:
        db.supervisor.arm_death(0, "next_command")
        t = db.begin()                      # scatter: dies on worker 0
        db.write_page(t, 1, make_page(b"l"))    # shard 1 never noticed
        with pytest.raises(WorkerCrashed) as excinfo:
            db.read_page(t, 0)
        assert excinfo.value.shard == 0
        assert db.worker_deaths == 1
        # the begin still registered everywhere (replay on 0, live on 1)
        assert [flags["is_active"]
                for flags in db._gather("txn_flags", (t,))] == [True, True]
        db.write_page(t, 0, make_page(b"k"))
        db.commit(t)
        assert db.committed_view(0) == make_page(b"k")
        assert db.committed_view(1) == make_page(b"l")
        assert verify_database(db) == []


def test_repeated_kills_accumulate_and_stay_consistent():
    """Several kills across a run: the journal replays the whole life
    of the shard each time, and the engine keeps converging."""
    with build() as db:
        committed = {}
        for round_no in range(3):
            t = db.begin()
            page = round_no * 2
            db.write_page(t, page, make_page(bytes([65 + round_no])))
            db.write_page(t, page + 1, make_page(bytes([97 + round_no])))
            db.commit(t)
            committed[page] = make_page(bytes([65 + round_no]))
            committed[page + 1] = make_page(bytes([97 + round_no]))
            db.supervisor.kill(round_no % 2)
            with pytest.raises(WorkerCrashed):
                db.begin()
            db.crash()
            db.recover()
        assert db.worker_deaths == 3
        for page, payload in committed.items():
            assert db.committed_view(page) == payload
        assert verify_database(db) == []


def test_fault_hook_rejected_in_worker_mode():
    """Recovery fault hooks are closures over test state — they cannot
    cross the pipe; the facade must say so instead of mis-executing."""
    from repro.errors import ModelError
    with build() as db:
        t = db.begin()
        db.write_page(t, 0, make_page(b"z"))
        db.commit(t)
        db.crash()
        with pytest.raises(ModelError):
            db.recover(fault_hook=lambda *a: None)
        db.recover()
        assert verify_database(db) == []
