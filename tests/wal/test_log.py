"""Tests for the duplexed log manager."""

import pytest

from repro.errors import LogCorruptionError, UnrecoverableDataError
from repro.storage.iostats import IOStats
from repro.wal import (BOTRecord, CheckpointRecord, CommitRecord,
                       GroupCommitCoordinator, GroupCommitLog, LogManager,
                       NULL_LSN, PageBeforeImage, PageRedoEntry)


@pytest.fixture
def log():
    return LogManager(name="test", page_size=128, transfers_per_log_page=1)


class TestAppend:
    def test_lsns_increase(self, log):
        first = log.append(BOTRecord(txn_id=1))
        second = log.append(CommitRecord(txn_id=1))
        assert second == first + 1
        assert log.last_lsn == second

    def test_get_by_lsn(self, log):
        lsn = log.append(BOTRecord(txn_id=1))
        assert log.get(lsn).txn_id == 1

    def test_get_bad_lsn(self, log):
        with pytest.raises(LogCorruptionError):
            log.get(99)

    def test_chain_links_same_transaction(self, log):
        a = log.append(BOTRecord(txn_id=1))
        log.append(BOTRecord(txn_id=2))
        c = log.append(PageBeforeImage(txn_id=1, page_id=5, image=b"x"))
        assert log.get(c).prev_lsn == a
        assert log.get(a).prev_lsn == NULL_LSN

    def test_records_of_follows_chain_newest_first(self, log):
        log.append(BOTRecord(txn_id=1))
        log.append(BOTRecord(txn_id=2))
        log.append(PageBeforeImage(txn_id=1, page_id=5, image=b"x"))
        log.append(CommitRecord(txn_id=1))
        chain = log.records_of(1)
        assert [type(r).__name__ for r in chain] == [
            "CommitRecord", "PageBeforeImage", "BOTRecord"]

    def test_scan_filter(self, log):
        log.append(BOTRecord(txn_id=1))
        log.append(PageBeforeImage(txn_id=1, page_id=5, image=b"x"))
        records = log.records()
        assert sum(isinstance(r, PageBeforeImage) for r in records) == 1
        assert len(records) == 2


class TestAccounting:
    def test_transfers_charged_per_filled_page_per_copy(self):
        stats = IOStats()
        log = LogManager(page_size=64, transfers_per_log_page=1, stats=stats)
        # append until more than one log page fills
        while log.size_bytes < 130:
            log.append(BOTRecord(txn_id=1))
        # two filled pages on each of two mirror copies
        assert stats.writes == 4

    def test_force_charges_partial_page(self):
        stats = IOStats()
        log = LogManager(page_size=1024, transfers_per_log_page=1, stats=stats)
        log.append(BOTRecord(txn_id=1))
        assert stats.writes == 0
        log.force()
        assert stats.writes == 2    # one partial page, both copies
        assert log.forced_lsn == log.last_lsn

    def test_force_idempotent(self):
        stats = IOStats()
        log = LogManager(page_size=1024, transfers_per_log_page=1, stats=stats)
        log.append(BOTRecord(txn_id=1))
        log.force()
        log.force()
        assert stats.writes == 2

    def test_single_copy_halves_cost(self):
        stats = IOStats()
        log = LogManager(page_size=1024, transfers_per_log_page=1, stats=stats,
                         duplex=False)
        log.append(BOTRecord(txn_id=1))
        log.force()
        assert stats.writes == 1

    def test_transfer_multiplier(self):
        """Logs on a RAID array pay the small-write protocol too."""
        stats = IOStats()
        log = LogManager(page_size=1024, transfers_per_log_page=4, stats=stats)
        log.append(BOTRecord(txn_id=1))
        log.force()
        assert stats.writes == 8


class TestDuplexIntegrity:
    def test_copies_identical(self, log):
        log.append(BOTRecord(txn_id=1))
        assert log.verify_duplex()

    def test_damage_detected(self, log):
        log.append(BOTRecord(txn_id=1))
        log.damage_copy(0, 0)
        assert not log.verify_duplex()

    def test_damage_beyond_end_rejected(self, log):
        with pytest.raises(ValueError):
            log.damage_copy(0, 10_000)


class TestCrashRestart:
    def test_after_crash_recovers_records(self, log):
        log.append(BOTRecord(txn_id=1))
        log.append(PageBeforeImage(txn_id=1, page_id=3, image=b"img"))
        log.append(CommitRecord(txn_id=1))
        count = log.after_crash()
        assert count == 3
        assert [r.txn_id for r in log.records()] == [1, 1, 1]
        chain = log.records_of(1)
        assert len(chain) == 3

    def test_after_crash_lsns_continue(self, log):
        log.append(BOTRecord(txn_id=1))
        log.after_crash()
        assert log.append(BOTRecord(txn_id=2)) == 2

    def test_after_crash_uses_healthy_copy(self, log):
        log.append(BOTRecord(txn_id=1))
        log.damage_copy(0, 0)
        assert log.after_crash() == 1

    def test_after_crash_all_copies_corrupt(self, log):
        """Every copy dying on a CRC error (not a clean torn tail) must
        refuse loudly: acknowledged records past the damage may be gone,
        so adopting the longest prefix would be silent data loss."""
        log.append(BOTRecord(txn_id=1))
        log.damage_copy(0, 0)
        log.damage_copy(1, 0)
        with pytest.raises(UnrecoverableDataError):
            log.after_crash()

    def test_torn_single_copy_healed_from_duplex_mate(self, log):
        """A torn write to ONE duplex copy is healed from the other: the
        survivor parses cleanly and restart adopts its full prefix."""
        log.append(BOTRecord(txn_id=1))
        log.append(CommitRecord(txn_id=1))
        log.force()
        # tear the tail of copy 0 mid-record (CRC now fails there)
        log.damage_copy(0, log.size_bytes - 2)
        assert log.after_crash() == 2
        assert [type(r).__name__ for r in log.records()] == [
            "BOTRecord", "CommitRecord"]

    def test_torn_both_copies_detected_not_silent(self, log):
        """Tearing the SAME forced record on both copies is detected as
        unrecoverable corruption, never silently truncated away."""
        log.append(BOTRecord(txn_id=1))
        log.append(CommitRecord(txn_id=1))
        log.force()
        log.damage_copy(0, log.size_bytes - 2)
        log.damage_copy(1, log.size_bytes - 2)
        with pytest.raises(UnrecoverableDataError):
            log.after_crash()

    def test_empty_log_restart(self, log):
        assert log.after_crash() == 0
        assert log.last_lsn == NULL_LSN

    def test_torn_record_does_not_poison_later_appends(self):
        """Regression: a crash can truncate mid-record; the surviving
        fragment must be rewound at restart, or records appended after
        recovery become unparseable at the NEXT crash."""
        log = LogManager(page_size=64, transfers_per_log_page=1)
        log.append(BOTRecord(txn_id=1))
        log.force()                     # one whole durable record
        # fill past the next page boundary so truncation tears a record
        while log.size_bytes <= 128:
            log.append(PageBeforeImage(txn_id=1, page_id=1, image=b"x" * 30))
        log.crash()                     # tears the record at the boundary
        survivors = log.after_crash()
        post = log.append(CommitRecord(txn_id=2))
        log.force()
        log.crash()
        assert log.after_crash() == survivors + 1
        assert log.get(post).txn_id == 2

    def test_short_forced_log_survives_two_crashes(self):
        """Regression: the durability watermark after a rewind must
        round up, or a sub-page log evaporates at the second crash."""
        log = LogManager(page_size=2020, transfers_per_log_page=1)
        log.append(CommitRecord(txn_id=1))
        log.force()
        log.crash()
        assert log.after_crash() == 1
        log.crash()
        assert log.after_crash() == 1
        assert [r.txn_id for r in log.records()] == [1]


def anchored_log(page_size: int = 128, reforce: bool = False) -> tuple:
    """Three records, a checkpoint appended as the anchor, two records
    after it, all durable: ``(log, anchor LSN, anchor byte offset)``.
    ``reforce`` charges every force's partial page again (the
    group-commit log's accounting); the log's coordinator defers its
    forces inside a window either way."""
    log = GroupCommitLog(name="test", page_size=page_size,
                         transfers_per_log_page=1,
                         coordinator=GroupCommitCoordinator())
    for device in log._devices:
        device.reforce_partial = reforce
    log.append(BOTRecord(txn_id=1))
    log.append(PageBeforeImage(txn_id=1, page_id=3, image=b"img"))
    log.append(BOTRecord(txn_id=2))
    offset = log.size_bytes
    anchor = log.append_anchor(CheckpointRecord(
        txn_id=0, active_txns=(1, 2), bot_lsns=(1, 3), next_txn_id=3))
    log.append(CommitRecord(txn_id=2))
    log.append(BOTRecord(txn_id=3))
    log.force()
    return log, anchor, offset


class TestAnchor:
    """Restart reads from the checkpoint the last durable page names:
    damage after the anchor is judged as before, damage before it when a
    read first reaches it."""

    def test_analysis_checks_only_the_records_from_the_anchor(self):
        log, anchor, _ = anchored_log()
        log.crash()
        assert log.after_crash() == 3
        assert log.anchor == anchor == 4
        assert log.transaction_table() == ({1: 1, 2: 3}, 3)
        assert log.txn_ids(CommitRecord, anchor) == {2}
        assert log.records_checked == 3 and log.records_decoded == 0
        # the first read below the anchor checks the rest
        assert [r.txn_id for r in log.records()] == [1, 1, 2, 0, 2, 3]
        assert log.records_checked == 6
        assert log.records_of(1)[-1].lsn == 1

    @pytest.mark.parametrize("reforce", [False, True])
    def test_no_page_write_since_the_checkpoint_keeps_the_old_anchor(
            self, reforce):
        """A crash before a page write reaches the end of a checkpoint
        appended as the anchor — its force deferred by a group-commit
        window and lost with the power: the durable pages carry the
        anchor before it.  The force that does reach it carries it, so a
        crash right after, with no log write since, starts the next
        restart there.  A force with no bytes since the last one writes
        no page."""
        log, anchor, _ = anchored_log(reforce=reforce)
        with log.coordinator.deferred():
            deferred = log.append_anchor(CheckpointRecord(txn_id=0))
        log.crash()                     # undrained: the window is lost
        log.after_crash()
        # the legacy model lets bytes landing in the partial page its
        # last force charged ride free, durable with no force at all
        assert log.anchor == (anchor if reforce else deferred)
        later = log.append_anchor(CheckpointRecord(txn_id=0))
        transfers = log.stats.snapshot().total
        log.force()
        assert log.stats.snapshot().total == transfers
        log.crash()
        log.after_crash()
        assert log.anchor == later

    def test_an_unforced_checkpoint_is_not_an_anchor(self):
        log, anchor, _ = anchored_log(reforce=True)
        with log.coordinator.deferred():
            later = log.append_anchor(CheckpointRecord(txn_id=0))
        assert log.anchor == anchor
        # the drain's page write carries it
        log.coordinator.flush()
        assert log.anchor == later

    def test_a_crash_inside_the_anchors_force_restarts_at_the_older(self):
        """Copy 0's page write makes a new anchor durable and the power
        fails before copy 1's: the copies carry different anchors, and
        the restart walks from the older one, so the walk — not the
        unchecked bytes before an anchor — settles where they differ."""
        log, anchor, _ = anchored_log(page_size=2020, reforce=True)

        class PowerCut(Exception):
            pass

        def power_cut(device_id, page_index):
            raise PowerCut

        log._devices[1].on_page_write = power_cut
        with pytest.raises(PowerCut):
            log.append_anchor(CheckpointRecord(txn_id=0))
        assert log._devices[0].anchor.lsn > anchor
        assert log._devices[1].anchor.lsn == anchor == log.anchor
        log._devices[1].on_page_write = None
        log.crash()
        log.after_crash()
        assert log.anchor == anchor
        assert log.verify_duplex()

    def test_damage_after_the_anchor_uses_the_mate(self):
        log, anchor, offset = anchored_log()
        log.damage_copy(0, log.size_bytes - 2)
        assert log.after_crash() == 3
        assert log.verify_duplex()

    def test_damage_after_the_anchor_on_both_copies_refuses(self):
        log, _, _ = anchored_log()
        log.damage_copy(0, log.size_bytes - 2)
        log.damage_copy(1, log.size_bytes - 2)
        with pytest.raises(UnrecoverableDataError):
            log.after_crash()

    def test_a_damaged_anchor_record_means_the_whole_walk(self):
        log, _, offset = anchored_log()
        log.damage_copy(0, offset + 1)
        log.damage_copy(1, offset + 1)
        # every copy dies on the checkpoint's CRC, as without an anchor
        with pytest.raises(UnrecoverableDataError):
            log.after_crash()

    def test_damage_before_the_anchor_is_found_on_first_read(self):
        """Restart does not look below the anchor; the first read there
        finds copy 0's damage and reads, and heals from, copy 1."""
        log, anchor, _ = anchored_log()
        log.damage_copy(0, 5)
        assert log.after_crash() == 3
        assert not log.verify_duplex()          # not looked at yet
        assert log.get(1).txn_id == 1
        assert log.verify_duplex()              # healed from the mate

    def test_each_record_before_the_anchor_from_whichever_copy_holds_it(
            self):
        """Different records damaged on the two copies before the
        anchor: each is read from its mate."""
        log, anchor, _ = anchored_log()
        second = log.get(2).serialized_size
        log.damage_copy(0, 5)                   # record 1, copy 0
        log.damage_copy(1, 36 + second // 2)    # record 2, copy 1
        log.after_crash()
        assert [r.lsn for r in log.records()] == [1, 2, 3, 4, 5, 6]
        assert log.verify_duplex()

    def test_a_record_both_copies_lost_refuses_only_the_reads_needing_it(
            self):
        """The same record damaged on both copies before the anchor:
        only the reads that need it refuse."""
        log, anchor, _ = anchored_log()
        log.damage_copy(0, 40)                  # record 2 on both copies
        log.damage_copy(1, 40)
        assert log.after_crash() == 3
        assert log.txn_ids(CommitRecord, anchor) == {2}
        assert log.records_from(anchor)[0].lsn == anchor
        assert log.get(1).txn_id == 1
        for read in (lambda: log.get(2), log.records,
                     lambda: log.records_of(1)):
            with pytest.raises(UnrecoverableDataError):
                read()
        # a trim at the anchor drops the lost run
        assert log.truncate_before(anchor) == 3
        assert [r.lsn for r in log.records()] == [4, 5, 6]

    def test_a_record_before_a_lost_one_is_read_from_its_intact_copy(self):
        """Copy 0 damaged in record 2's image, record 3 lost on both
        copies: the walk below the anchor stops at 3 and leaves the
        copies as they are, so record 2 is read from its mate."""
        log, anchor, _ = anchored_log()
        log.damage_copy(0, 36 + 36 + 8 + 1)     # record 2's image, copy 0
        log.damage_copy(0, 90)                  # record 3 on both copies
        log.damage_copy(1, 90)
        log.after_crash()
        assert log.get(2).image == b"img"
        with pytest.raises(UnrecoverableDataError):
            log.get(3)

    def test_a_trim_at_the_anchor_drops_the_log_before_it_unread(self):
        log, anchor, offset = anchored_log()
        log.crash()
        log.after_crash()
        size = log.size_bytes
        assert log.truncate_before(anchor) == 3
        assert log.records_checked == 3         # never read
        assert log.size_bytes == size - offset
        assert log.anchor == anchor
        log.crash()
        assert log.after_crash() == 3 and log.base_lsn == anchor

    @pytest.mark.parametrize("batched", [False, True])
    def test_an_append_chains_a_page_from_the_walk_start(self, batched):
        """A page whose only chained record lies before the walk (its
        marker vouches for it, so the anchor's redo point is the anchor
        itself): the first append to its chain after a restart, alone
        or in a batch, links to nothing and reads nothing below the
        walk; a read that reaches below indexes that record, and the
        head stays the newest."""
        log = LogManager(name="test", page_size=128)
        log.append(BOTRecord(txn_id=1))
        below = log.append(PageRedoEntry(txn_id=1, page_id=0, image=b"a"))
        log.append(CommitRecord(txn_id=1))
        anchor = log.append_anchor(CheckpointRecord(txn_id=0,
                                                    next_txn_id=2),
                                   {0: below})
        log.crash()
        assert log.after_crash() == 1 and log.anchor == anchor
        record = PageRedoEntry(txn_id=2, page_id=0, image=b"b")
        lsn = (log.append_batch([record]) if batched
               else log.append(record))
        assert (below, lsn) == (2, 5)
        assert record.prev_page_lsn == NULL_LSN
        assert log.records_checked == 1         # nothing below the walk
        assert log.page_chain_head(0) == lsn
        assert [r.lsn for r in log.records()] == [1, 2, 3, 4, 5]
        assert log.page_chain_head(0) == lsn


class TestRedoPoint:
    """An anchor carries the first LSN a restart's REDO may need: the
    lowest marker + 1 of the pages whose chain head is past their
    marker, never below the previous anchor's."""

    @staticmethod
    def lagging_log() -> LogManager:
        """LSNs 1-4: a BOT, page 0's and page 1's redo records, a
        commit; the anchor at 5 with page 0 reflected and page 1's
        image lagging behind LSN 3."""
        log = LogManager(name="test", page_size=128)
        log.append(BOTRecord(txn_id=1))
        log.append(PageRedoEntry(txn_id=1, page_id=0, image=b"a"))
        log.append(PageRedoEntry(txn_id=1, page_id=1, image=b"b"))
        log.append(CommitRecord(txn_id=1))
        assert log.append_anchor(CheckpointRecord(txn_id=0, next_txn_id=2),
                                 {0: 2, 1: 1}) == 5
        return log

    def test_no_chains_no_redo_point(self):
        log, anchor, _ = anchored_log()
        assert [device.anchor[3:] for device in log._devices] \
            == [(None, None)] * 2
        log.append(CheckpointRecord(txn_id=0))
        # no page lagged: the record after the newest checkpoint
        assert log.redo_point == log.last_lsn + 1

    def test_a_lagging_page_starts_the_walk_at_its_redo_point(self):
        log = self.lagging_log()
        assert log.redo_point == 2
        log.crash()
        assert log.after_crash() == 4           # LSNs 2 .. 5
        assert (log.anchor, log.redo_point) == (5, 2)
        assert log.txn_ids(CommitRecord, 2) == {1}
        assert log.records_checked == 4

    def test_a_redo_point_never_falls_below_the_previous(self):
        log = self.lagging_log()
        log.append(BOTRecord(txn_id=2))
        log.append(PageRedoEntry(txn_id=2, page_id=2, image=b"c"))
        log.append(CommitRecord(txn_id=2))
        # page 2 has no marker (never written back), but the anchor
        # before vouched for every record below its redo point
        log.append_anchor(CheckpointRecord(txn_id=0, next_txn_id=3),
                          {0: 2, 1: 3})
        assert log.redo_point == 2
        # once every page is reflected, no page lags
        log.append_anchor(CheckpointRecord(txn_id=0, next_txn_id=3),
                          {0: 2, 1: 3, 2: 7})
        assert log.redo_point == log.last_lsn + 1

    def test_a_page_fill_carries_each_anchor_it_makes_durable(self):
        """Two anchors appended in one deferred group-commit window: the
        page fill that makes the first durable carries it, and its redo
        point, while the second waits for its own page write."""
        log = GroupCommitLog(name="test", page_size=128,
                             transfers_per_log_page=1,
                             coordinator=GroupCommitCoordinator())
        for device in log._devices:
            device.reforce_partial = True
        log.append(PageRedoEntry(txn_id=1, page_id=0, image=b"a"))
        size = CheckpointRecord(txn_id=0).serialized_size
        # pad until a page boundary falls inside the second checkpoint
        while -(log.size_bytes + size) % 128 >= size:
            log.append(BOTRecord(txn_id=1))
        log.force()
        with log.coordinator.deferred():
            first = log.append_anchor(CheckpointRecord(txn_id=0), {0: 0})
            second = log.append_anchor(CheckpointRecord(txn_id=0), {0: 1})
            assert log._devices[0].durable_size >= log.size_bytes - size
            assert [(device.anchor.lsn, [a.lsn for a in device.pending])
                    for device in log._devices] == [(first, [second])] * 2
            assert log.redo_point == 1
            log.crash()
        log.after_crash()
        assert (log.anchor, log.last_checkpoint_lsn()) == (first, first)
        assert log.redo_point == 1

    def test_a_pending_anchor_holds_the_redo_point_back(self):
        """An anchor whose force a group-commit window deferred bounds
        the redo point already: the window drains before a crash, so
        it may be the next restart's anchor."""
        log = GroupCommitLog(name="test", page_size=2020,
                             transfers_per_log_page=1,
                             coordinator=GroupCommitCoordinator())
        for device in log._devices:
            device.reforce_partial = True
        log.append_anchor(CheckpointRecord(txn_id=0), {})
        with log.coordinator.deferred():
            lagging = log.append(PageRedoEntry(txn_id=1, page_id=0,
                                               image=b"a"))
            log.append_anchor(CheckpointRecord(txn_id=0), {})
            assert [len(device.pending) for device in log._devices] == [1, 1]
            assert log.redo_point == lagging

    @pytest.mark.parametrize("chained", [False, True])
    def test_a_checkpoint_no_copy_carries_vouches_for_no_chain(self,
                                                                chained):
        """The power fails inside the first anchor's force, between the
        copies' page writes: the mate carries no anchor, so the restart
        walks the whole log.  Redo starts after the checkpoint the walk
        found when the log holds no page chain, and at the first record
        when one may lag behind it."""
        log = LogManager(name="test", page_size=2020)
        if chained:
            log.append(PageRedoEntry(txn_id=1, page_id=0, image=b"a"))
        log.append(BOTRecord(txn_id=1))

        class PowerCut(Exception):
            pass

        def power_cut(device_id, page_index):
            raise PowerCut

        log._devices[1].on_page_write = power_cut
        with pytest.raises(PowerCut):
            checkpoint = log.append_anchor(CheckpointRecord(txn_id=0), {})
        log._devices[1].on_page_write = None
        log.crash()
        log.after_crash()
        assert log.anchor == NULL_LSN
        assert log.redo_point == (1 if chained
                                  else log.last_checkpoint_lsn() + 1)
        assert log.last_checkpoint_lsn() == log.last_lsn

    def test_records_below_the_anchor_from_whichever_copy_holds_them(self):
        """Different records between the redo point and the anchor
        damaged on the two copies: restart checks each on its mate and
        heals both copies."""
        log = self.lagging_log()
        log.crash()
        log.damage_copy(0, log._entries[2][4] + 1)      # LSN 3, copy 0
        log.damage_copy(1, log._entries[3][4] + 1)      # LSN 4, copy 1
        assert log.after_crash() == 4
        assert log.verify_duplex()
        assert [r.lsn for r in log.records_from(2)] == [2, 3, 4, 5]

    def test_a_record_both_copies_lost_below_the_anchor_refuses(self):
        log = self.lagging_log()
        log.crash()
        for copy in (0, 1):
            log.damage_copy(copy, log._entries[2][4] + 1)   # LSN 3
        with pytest.raises(UnrecoverableDataError):
            log.after_crash()

    def test_a_trim_keeps_the_redo_point_and_moves_its_offset(self):
        log = self.lagging_log()
        assert log.truncate_before(log.redo_point) == 1
        assert [device.anchor.redo for device in log._devices] == [2, 2]
        log.crash()
        assert log.after_crash() == 4
        assert [r.lsn for r in log.records()] == [2, 3, 4, 5]


def _one_append_per_record(devices, sizes) -> tuple:
    """What appending records of ``sizes`` bytes one ``LogDevice.append``
    each did to ``devices`` (copy 0 then copy 1, a record at a time):
    each filled page's ``(device, page)`` hook call in order, and each
    copy's ``(anchor, pending)`` after — worked out on numbers from the
    devices' state, nothing appended."""
    state = [[d.size, d._pages_charged, d._forced_len, d.anchor, d.pending]
             for d in devices]
    hooks = []
    for size in sizes:
        for device, copy in zip(devices, state):
            copy[0] += size
            while copy[1] < copy[0] // device.page_size:
                hooks.append((device.device_id, copy[1]))
                copy[1] += 1
            durable = min(copy[0], max(copy[1] * device.page_size, copy[2]))
            while copy[4] and durable >= copy[4][0].offset + copy[4][0].size:
                copy[3], copy[4] = copy[4][0], copy[4][1:]
    return hooks, [(copy[3], copy[4]) for copy in state]


@pytest.mark.parametrize("anchored", [True, False])
def test_a_batch_writes_the_pages_one_append_a_record_did(anchored):
    """A batch whose records fill two log pages of each copy — with an
    anchor pending on both (its force deferred by a group-commit
    window), or none: the same page-write hooks in the same order, the
    same transfers, and a pending anchor carried by the page write that
    makes it durable, as one device append per record and copy wrote
    them."""
    log, anchor, _ = anchored_log(reforce=anchored)
    devices = log._devices
    if anchored:
        with log.coordinator.deferred():
            anchor_after = log.append_anchor(CheckpointRecord(txn_id=0))
        assert [[anchor.lsn for anchor in device.pending]
                for device in devices] == [[anchor_after]] * 2
        assert log.anchor == anchor
    else:
        anchor_after = anchor
        assert [device.pending for device in devices] == [[]] * 2
    records = [PageBeforeImage(txn_id=5, page_id=page, image=bytes(60))
               for page in range(5)]
    hooks, anchors = _one_append_per_record(
        devices, [record.serialized_size for record in records])
    seen = []
    for device in devices:
        device.on_page_write = lambda device_id, page: seen.append(
            (device_id, page))
    transfers = log.stats.log_transfers
    log.append_batch(records)
    assert seen == hooks
    assert len(seen) >= 2 * len(devices)
    assert log.stats.log_transfers - transfers == len(seen)
    assert [(device.anchor, device.pending) for device in devices] \
        == anchors
    assert log.anchor == anchor_after
