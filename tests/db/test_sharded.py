"""The K-way sharded engine: routing, scheduler, commit/recovery
semantics, facades, and the group-commit crash contract.

There is one facade and two transports, so every test class that
builds its engines through the ``make_db`` fixture runs twice: as
written against in-process shards, and again through its two-line
``...OnWorkers`` subclass (at the bottom) against worker-process shards.
"""

import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import Database, ShardedDatabase, ShardScheduler, \
    WorkerShardedDatabase, preset, shard_config
from repro.db import workers as workers_module
from repro.db.verify import verify_database
from repro.errors import ModelError, RecoveryError, TransactionError
from repro.obs import MetricsRegistry
from repro.storage import make_page


@pytest.fixture
def make_db(request):
    """Factory for K-way engines on the requesting class's transport;
    reaps the worker processes of everything it built."""
    transport = getattr(request.cls, "transport", ShardedDatabase)
    built = []

    def factory(shards=2, flush_horizon=1, name="page-force-rda",
                metrics=None, **extra):
        overrides = dict(group_size=4, num_groups=8, buffer_capacity=8)
        overrides.update(extra)
        db = transport(preset(name, **overrides), shards=shards,
                       flush_horizon=flush_horizon, metrics=metrics)
        built.append(db)
        return db

    yield factory
    for db in built:
        if isinstance(db, WorkerShardedDatabase):
            db.close()


class TestScheduler:
    def test_rotating_round_robin(self):
        scheduler = ShardScheduler(3)
        assert scheduler.order() == [0, 1, 2]
        assert scheduler.order() == [1, 2, 0]
        assert scheduler.order() == [2, 0, 1]
        assert scheduler.order() == [0, 1, 2]

    def test_each_order_is_a_permutation(self):
        scheduler = ShardScheduler(5)
        for _ in range(11):
            assert sorted(scheduler.order()) == [0, 1, 2, 3, 4]


class TestConfigAndRouting:
    def test_shards_must_be_positive(self, make_db):
        with pytest.raises(ModelError):
            make_db(shards=0)

    def test_shard_config_splits_groups_and_buffer(self):
        config = preset("page-force-rda", num_groups=8, buffer_capacity=8)
        per_shard = shard_config(config, 4)
        assert per_shard.num_groups == 2
        assert per_shard.buffer_capacity == 2

    def test_num_data_pages_covers_all_shards(self, make_db):
        db = make_db(shards=2)
        assert db.num_data_pages == \
            2 * db.shards[0].num_data_pages

    def test_page_out_of_range(self, make_db):
        db = make_db(shards=2)
        txn = db.begin()
        with pytest.raises(ModelError):
            db.read_page(txn, db.num_data_pages)

    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_routing_partitions_the_page_space(self, shards, data):
        """Every global page id maps to exactly one (shard, local) cell
        and the map is a bijection: global_page inverts _route, no two
        pages collide, and shard ownership is page % K."""
        db = ShardedDatabase(preset("page-force-rda", group_size=4,
                                    num_groups=8, buffer_capacity=8),
                             shards=shards)
        pages = data.draw(st.lists(
            st.integers(min_value=0, max_value=db.num_data_pages - 1),
            min_size=1, max_size=30))
        seen = {}
        for page in pages:
            shard, local = db._route(page)
            assert shard == page % shards
            assert 0 <= local < db.shards[shard].num_data_pages
            assert db.global_page(shard, local) == page
            if (shard, local) in seen:
                assert seen[(shard, local)] == page
            seen[(shard, local)] = page

    def test_routing_is_exhaustive_and_disjoint(self, make_db):
        db = make_db(shards=4)
        cells = {db._route(page) for page in range(db.num_data_pages)}
        assert len(cells) == db.num_data_pages  # injective
        per_shard = {}
        for shard, local in cells:
            per_shard.setdefault(shard, set()).add(local)
        for shard, locals_ in per_shard.items():
            # each shard owns a dense prefix of its local space
            assert locals_ == set(range(len(locals_)))


class TestTransactions:
    def test_commit_visible_on_every_shard(self, make_db):
        db = make_db(shards=2)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"shard zero"))
        db.write_page(txn, 1, make_page(b"shard one"))
        db.commit(txn)
        assert db.disk_page(0) == make_page(b"shard zero") or \
            db.committed_view(0) == make_page(b"shard zero")
        assert db.committed_view(1) == make_page(b"shard one")
        assert db.counters.transactions_committed == 1

    def test_abort_rolls_back_everywhere(self, make_db):
        db = make_db(shards=2)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"keep"))
        db.commit(txn)
        loser = db.begin()
        db.write_page(loser, 0, make_page(b"drop0"))
        db.write_page(loser, 1, make_page(b"drop1"))
        db.abort(loser)
        assert db.committed_view(0) == make_page(b"keep")
        from repro.storage.page import ZERO_PAGE
        assert db.committed_view(1) == ZERO_PAGE

    def test_global_ids_pinned_on_all_shards(self, make_db):
        db = make_db(shards=3)
        first, second = db.begin(), db.begin()
        assert first != second
        for shard in db.shards:
            assert shard.txn_flags(first)["is_active"]
            assert shard.txn_flags(second)["is_active"]
        db.commit(first)
        db.abort(second)

    def test_unknown_txn_rejected(self, make_db):
        db = make_db(shards=2)
        with pytest.raises(TransactionError):
            db.commit(999)


class TestCrashRecovery:
    def test_crash_contract_drains_acknowledged_commits(self, make_db):
        """With a batched force pending, a crash must keep every
        acknowledged commit durable on every shard."""
        db = make_db(shards=2, flush_horizon=8)
        for i in range(3):
            txn = db.begin()
            db.write_page(txn, i, make_page(b"txn %d" % i))
            db.commit(txn)
        # horizon not reached: forces are still pending in the window
        assert db.coordinator.pending_logs > 0
        db.crash()
        stats = db.recover()
        assert set(stats["winners"]) == {1, 2, 3}
        assert stats["losers"] == []
        for i in range(3):
            assert db.committed_view(i) == make_page(b"txn %d" % i)
        assert verify_database(db) == []

    def test_in_flight_transaction_is_a_loser_everywhere(self, make_db):
        db = make_db(shards=2, flush_horizon=4)
        winner = db.begin()
        db.write_page(winner, 0, make_page(b"win"))
        db.commit(winner)
        loser = db.begin()
        db.write_page(loser, 2, make_page(b"lose0"))
        db.write_page(loser, 3, make_page(b"lose1"))
        db.crash()
        stats = db.recover()
        assert winner in stats["winners"]
        assert loser in stats["losers"]
        from repro.storage.page import ZERO_PAGE
        assert db.committed_view(2) == ZERO_PAGE
        assert db.committed_view(3) == ZERO_PAGE
        assert db.committed_view(0) == make_page(b"win")

    def test_recover_reports_per_shard_details(self, make_db):
        db = make_db(shards=2)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"x"))
        db.commit(txn)
        db.crash()
        stats = db.recover()
        assert sorted(stats["shards"]) == [0, 1]
        assert "page_transfers" in stats


class TestMediaFailures:
    def test_disk_ids_route_across_shards(self, make_db):
        db = make_db(shards=2)
        assert db.num_disks == 2 * db.disks_per_shard
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"payload"))
        db.commit(txn)
        victim = db.disks_per_shard  # first disk of shard 1
        db.media_failure(victim)
        report = db.media_recover(victim)
        assert report is not None
        assert db.verify_parity() == []

    def test_verify_parity_labels_shard(self, make_db):
        db = make_db(shards=2)
        assert db.verify_parity() == []


class TestFacades:
    def test_statistics_keys(self, make_db):
        db = make_db(shards=2, flush_horizon=4)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"s"))
        db.commit(txn)
        stats = db.statistics()
        assert stats["shards"] == 2
        assert stats["flush_horizon"] == 4
        for key in ("page_transfers", "deferred_forces", "batched_flushes",
                    "commit_log_bytes", "transactions_committed"):
            assert key in stats

    def test_buffer_facade_globalizes_resident_pages(self, make_db):
        db = make_db(shards=2)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"a"))
        db.write_page(txn, 1, make_page(b"b"))
        db.commit(txn)
        resident = db.buffer.resident_pages()
        assert 0 in resident and 1 in resident
        assert 0 in db.buffer and 1 in db.buffer

    def test_metrics_snapshot_carries_shard_labels(self, make_db):
        db = make_db(shards=2, metrics=MetricsRegistry())
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"m"))
        db.commit(txn)
        counters = db.metrics.snapshot()["counters"]
        shard_labelled = [k for k in counters if "shard=" in k]
        assert shard_labelled, counters
        assert any("shard=0" in k for k in shard_labelled)

    def test_k1_matches_single_engine_committed_state(self, make_db):
        """A 1-way sharded engine is the legacy engine behind a facade."""
        sharded = make_db(shards=1)
        single = Database(sharded.config)
        for db in (single, sharded):
            txn = db.begin()
            db.write_page(txn, 0, make_page(b"same"))
            db.commit(txn)
            loser = db.begin()
            db.write_page(loser, 1, make_page(b"gone"))
            db.crash()
            db.recover()
        assert single.num_data_pages == sharded.num_data_pages
        for page in range(single.num_data_pages):
            assert single.committed_view(page) == sharded.committed_view(page)
        # costs differ only by the global commit log's records/forces
        assert sharded.stats.total >= single.stats.total

    def test_txn_views_and_unknown_id_rejection(self, make_db):
        db = make_db(shards=2)
        reader, writer = db.begin(), db.begin()
        db.write_page(writer, 1, make_page(b"w"))      # shard 1 only
        assert [view.txn_id for view in db.txns.active_transactions()] \
            == [reader, writer]
        view = db.txns.get(writer)
        assert view.is_active and view.is_update_transaction
        assert not view.must_commit
        assert not db.txns.get(reader).is_update_transaction
        db.commit(writer)
        assert not view.is_active                       # views are live
        with pytest.raises(TransactionError):
            db.txns.get(999)

    def test_checkpointer_facade_drives_every_shard(self, make_db):
        assert make_db(name="page-force-rda").checkpointer is None
        db = make_db(name="page-noforce-rda", checkpoint_interval=10)
        txn = db.begin()
        db.write_page(txn, 0, make_page(b"c"))
        db.commit(txn)
        assert db.checkpointer.maybe_checkpoint() is None
        db.checkpointer.note_work(11)
        assert len(db.checkpointer.maybe_checkpoint()) == 2
        assert len(db.checkpoint()) == 2


class TestCrossShardErrors:
    def test_scatter_reaches_every_shard_then_raises_the_first_error(
            self, make_db):
        """The one error rule of ``_scatter``: a command is delivered
        to every shard even when one refuses it, and the first refusal
        is raised after the sweep."""
        db = make_db(shards=3)
        db.shards[1].begin(7)           # only shard 1 will refuse id 7
        with pytest.raises(TransactionError, match="already registered"):
            db.begin(7)
        for shard in db.shards:         # shard 2, after the refusal, too
            assert shard.txn_flags(7)["is_active"]

    def test_abort_of_pinned_transaction_touches_no_shard(self, make_db):
        """A transaction one shard pinned ``must_commit`` (its undo was
        lost to a media failure) must be refused *whole*: rolling back
        the other shards first would leave it neither committable nor
        abortable."""
        db = make_db(shards=2, name="page-noforce-rda", group_size=5,
                     num_groups=12, buffer_capacity=4)
        txn = db.begin()
        for page in range(40):
            db.write_page(txn, page, make_page(b"p%d" % page))
        for disk in range(db.disks_per_shard, db.num_disks):    # shard 1
            db.media_failure(disk)
            db.media_recover(disk, on_lost_undo="adopt")
            if db.txns.get(txn).must_commit:
                break
        assert db.txns.get(txn).must_commit
        with pytest.raises(RecoveryError, match="can no longer abort"):
            db.abort(txn)
        view = db.txns.get(txn)
        assert view.is_active and view.must_commit      # shard 0, shard 1
        db.commit(txn)                  # the only way out still works
        assert db.counters.transactions_committed == 1
        assert verify_database(db) == []


def test_worker_facade_is_transport_only():
    """Lock the design: one facade body, the transport the only seam.
    ``WorkerShardedDatabase`` defines no facade operation of its own and
    ``repro.db.workers`` holds no mirror of the facade views."""
    own = vars(WorkerShardedDatabase)
    for name in ("begin", "grants_for", "commit", "abort", "trim_log",
                 "recover", "statistics", "checkpoint", "read_page",
                 "write_page", "read_record", "update_record",
                 "insert_record", "delete_record", "load_pages",
                 "format_record_pages", "media_failure", "media_recover",
                 "disk_page", "committed_view", "verify_parity"):
        assert name not in own, f"WorkerShardedDatabase overrides {name}"
        assert hasattr(ShardedDatabase, name)
    mirrors = [name for name, _ in inspect.getmembers(workers_module,
                                                      inspect.isclass)
               if name.endswith(("View", "Facade"))]
    assert mirrors == []


# -- the same tests over worker-process shards ------------------------------


class OnWorkers:
    transport = WorkerShardedDatabase


class TestConfigAndRoutingOnWorkers(OnWorkers, TestConfigAndRouting):
    # pure arithmetic that builds no engine through the fixture
    test_shard_config_splits_groups_and_buffer = None
    test_routing_partitions_the_page_space = None


class TestTransactionsOnWorkers(OnWorkers, TestTransactions):
    pass


class TestCrashRecoveryOnWorkers(OnWorkers, TestCrashRecovery):
    pass


class TestMediaFailuresOnWorkers(OnWorkers, TestMediaFailures):
    pass


class TestFacadesOnWorkers(OnWorkers, TestFacades):
    pass


class TestCrossShardErrorsOnWorkers(OnWorkers, TestCrossShardErrors):
    pass
