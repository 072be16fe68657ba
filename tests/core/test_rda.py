"""Tests for the RDA recovery manager over a real twin-parity array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DirtySet, RDAManager
from repro.errors import ParityGroupError, RecoveryError
from repro.storage import (ParityHeader, TwinState, compute_parity,
                           make_page, make_twin_parity_striped,
                           make_twin_raid5, select_current_twin, xor_pages)
from repro.storage.page import PAGE_SIZE


@pytest.fixture
def rda():
    array = make_twin_raid5(4, 6)
    for g in range(array.geometry.num_groups):
        array.full_stripe_write(
            g, [make_page(bytes([g + 1, i + 1]))
                for i in range(array.geometry.group_size)])
    return RDAManager(array)


def original(page_id, rda):
    geo = rda.array.geometry
    g = geo.group_of(page_id)
    i = geo.index_in_group(page_id)
    return make_page(bytes([g + 1, i + 1]))


def needs_undo_log(rda, page, txn_id):
    """The Figure 3 question, asked where the engine asks it."""
    group = rda.array.geometry.group_of(page)
    return not rda.dirty_set.can_write_without_undo(group, page, txn_id)


class TestWriteRule:
    def test_clean_group_needs_no_log(self, rda):
        assert not needs_undo_log(rda, 0, txn_id=1)

    def test_dirty_other_page_needs_log(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        other = next(p for p in rda.array.geometry.group_pages(group) if p != 0)
        assert needs_undo_log(rda, other, txn_id=1)

    def test_dirty_same_page_same_txn_needs_no_log(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        assert not needs_undo_log(rda, 0, txn_id=1)

    def test_dirty_same_page_other_txn_needs_log(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        assert needs_undo_log(rda, 0, txn_id=2)

    def test_unlogged_violation_raises(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        other = next(p for p in rda.array.geometry.group_pages(group) if p != 0)
        with pytest.raises(ParityGroupError):
            rda.write_uncommitted(other, make_page(b"y"), txn_id=1)


class TestCosts:
    """Per-operation page-transfer costs the analytical model assumes."""

    def test_first_steal_costs_four(self, rda):
        with rda.array.stats.window() as w:
            rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        assert w.total == 4

    def test_first_steal_with_buffered_old_costs_three(self, rda):
        with rda.array.stats.window() as w:
            rda.write_uncommitted(0, make_page(b"x"), txn_id=1,
                                  old_data=original(0, rda))
        assert w.total == 3

    def test_write_into_dirty_group_costs_six(self, rda):
        """The model's a + 2: both twins updated."""
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        other = next(p for p in rda.array.geometry.group_pages(group) if p != 0)
        with rda.array.stats.window() as w:
            rda.write_committed(other, make_page(b"y"))   # a logged steal
        assert w.total == 6

    def test_group_write_costs_two_per_page_plus_two(self, rda):
        """k pages of one clean group: one twin read, one twin write —
        2k + 2, less one per old image in hand; k = 1 is a = 4 / 3."""
        writes = [(page, make_page(b"r%d" % page), None)
                  for page in rda.array.geometry.group_pages(1)[:3]]
        with rda.array.stats.window() as w:
            rda.write_group_committed(1, writes, lambda *label: None)
        assert w.total == 2 * 3 + 2
        page, payload, _ = writes[0]
        with rda.array.stats.window() as w:
            rda.write_group_committed(1, [(page, make_page(b"again"), payload)],
                                      lambda *label: None)
        assert w.total == 3

    def test_group_write_into_a_dirty_group_keeps_both_twins(self, rda):
        """Figure 6 page by page (a + 2 each): the twin XOR identity
        still undoes the stolen page afterwards."""
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        others = [p for p in rda.array.geometry.group_pages(group) if p != 0]
        labels = []
        with rda.array.stats.window() as w:
            rda.write_group_committed(
                group, [(page, make_page(b"y%d" % page), None)
                        for page in others[:2]],
                lambda *label: labels.append(label))
        assert w.total == 2 * 6
        assert labels == [("page", page) for page in others[:2]]
        assert rda.abort_txn(1) == {0: original(0, rda)}
        assert rda.array.scrub() == []

    def test_commit_costs_zero_transfers(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        with rda.array.stats.window() as w:
            rda.commit_txn(1)
        assert w.total == 0

    def test_abort_costs_five_or_four(self, rda):
        """Paper Section 5.2.1: recovering a page from the parity may
        take up to 5-6 I/Os; here: 2 twin reads + D_new read + restore
        write + working-twin invalidation."""
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        with rda.array.stats.window() as w:
            rda.abort_txn(1)
        assert w.total == 5          # 2 twins + D_new + restore + header
        rda.write_uncommitted(0, make_page(b"y"), txn_id=2)
        with rda.array.stats.window() as w:
            rda.abort_txn(2, buffered={0: make_page(b"y")})
        assert w.total == 4          # D_new supplied


class TestAbortViaParityAlone:
    def test_restores_exact_before_image(self, rda):
        before = original(0, rda)
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        restored = rda.abort_txn(1)
        assert restored == {0: before}
        assert rda.array.read_page(0) == before
        assert rda.array.scrub() == []

    def test_restores_after_resteal_chain(self, rda):
        before = original(0, rda)
        for version in (b"v1", b"v2", b"v3"):
            rda.write_uncommitted(0, make_page(version), txn_id=1)
        rda.abort_txn(1)
        assert rda.array.read_page(0) == before

    def test_restores_despite_logged_writes_into_group(self, rda):
        """Committed/logged writes into the dirty group update both twins
        and must not disturb the unlogged page's undo."""
        before = original(0, rda)
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        others = [p for p in rda.array.geometry.group_pages(group) if p != 0]
        rda.write_committed(others[0], make_page(b"committed"))
        rda.write_committed(others[1], make_page(b"logged"))
        rda.abort_txn(1)
        assert rda.array.read_page(0) == before
        assert rda.array.read_page(others[0]) == make_page(b"committed")
        assert rda.array.read_page(others[1]) == make_page(b"logged")

    def test_multi_group_abort(self, rda):
        pages = [0, rda.array.geometry.group_pages(1)[0],
                 rda.array.geometry.group_pages(2)[0]]
        befores = {p: original(p, rda) for p in pages}
        for p in pages:
            rda.write_uncommitted(p, make_page(b"mod"), txn_id=1)
        restored = rda.abort_txn(1)
        assert restored == befores

    def test_working_twin_invalidated(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        working = rda.dirty_set.entry(group).working_twin
        rda.abort_txn(1)
        _, header = rda.array.peek_twin(group, working)
        assert header.state is TwinState.INVALID

    def test_abort_without_steals_is_noop(self, rda):
        assert rda.abort_txn(42) == {}


class TestCommit:
    def test_commit_flips_current_twin(self, rda):
        group = rda.array.geometry.group_of(0)
        old_current = rda.current_twin(group)
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        assert rda.commit_txn(1) == [group]
        assert rda.current_twin(group) == 1 - old_current
        assert not rda.dirty_set.is_dirty(group)

    def test_new_steal_after_commit_uses_other_twin(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        rda.commit_txn(1)
        rda.write_uncommitted(0, make_page(b"y"), txn_id=2)
        restored = rda.abort_txn(2)
        assert restored == {0: make_page(b"x")}
        assert rda.array.read_page(0) == make_page(b"x")

    def test_parity_consistent_after_commit(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        rda.commit_txn(1)
        assert rda.array.scrub() == []


class TestPromotion:
    def test_promote_materializes_before_image(self, rda):
        before = original(0, rda)
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        logged = {}

        def log_fn(txn_id, page_id, image):
            logged[(txn_id, page_id)] = image

        txn_id, page_id = rda.promote_to_logged(group, log_fn)
        assert (txn_id, page_id) == (1, 0)
        assert logged[(1, 0)] == before
        assert not rda.dirty_set.is_dirty(group)
        # the working twin was adopted as current: parity matches data
        assert rda.array.scrub() == []

    def test_promoted_group_accepts_new_steal(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        rda.promote_to_logged(group, lambda *a: None)
        other = next(p for p in rda.array.geometry.group_pages(group) if p != 0)
        rda.write_uncommitted(other, make_page(b"y"), txn_id=2)
        restored = rda.abort_txn(2)
        assert restored[other] == original(other, rda)


class TestCrashScan:
    def test_finds_loser_dirty_groups(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)   # loser
        rda.write_uncommitted(rda.array.geometry.group_pages(1)[0],
                              make_page(b"y"), txn_id=2)      # winner
        rda.commit_txn(2)
        losers = rda.crash_scan(committed_txns={2})
        assert [(e.txn_id, e.page_id) for e in losers] == [(1, 0)]

    def test_scan_rebuilds_dirty_set_for_undo(self, rda):
        before = original(0, rda)
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        rda.lose_memory()                       # crash
        losers = rda.crash_scan(committed_txns=set())
        assert len(losers) == 1
        rda.abort_txn(1)
        assert rda.array.read_page(0) == before

    def test_scan_sets_current_twin_for_winners(self, rda):
        group = rda.array.geometry.group_of(0)
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        working = rda.dirty_set.entry(group).working_twin
        rda.commit_txn(1)
        rda.lose_memory()
        rda.crash_scan(committed_txns={1})
        assert rda.current_twin(group) == working

    def test_scan_cost_is_two_reads_per_group(self, rda):
        with rda.array.stats.window() as w:
            rda.crash_scan(committed_txns=set())
        assert w.reads == 2 * rda.array.geometry.num_groups
        assert w.writes == 0

    def test_scan_clock_advances_past_disk_stamps(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        stamp = rda.dirty_set.entry(rda.array.geometry.group_of(0)).working_timestamp
        rda.lose_memory()
        rda.crash_scan(committed_txns=set())
        assert rda.array.next_timestamp() > stamp


    def test_scan_agrees_with_figure_7_on_every_header_pair(self):
        """The scan picks a group's current twin from the two header
        states when neither is WORKING; every pair of states, timestamp
        order and WORKING owner must come out as ``select_current_twin``
        says, and only a loser's WORKING twin enters the Dirty_Set."""
        winner, loser = 7, 8

        def headers_of(state, stamp):
            if state is not TwinState.WORKING:
                return [ParityHeader(timestamp=stamp, state=state)]
            return [ParityHeader(timestamp=stamp, txn_id=txn,
                                 dirty_page_index=0, state=state)
                    for txn in (winner, loser)]

        pairs = [(h0, h1)
                 for s0 in TwinState for s1 in TwinState
                 for t0, t1 in ((3, 5), (5, 5), (5, 3))
                 for h0 in headers_of(s0, t0) for h1 in headers_of(s1, t1)
                 if (h0.txn_id, h1.txn_id) != (loser, loser)]
        array = make_twin_raid5(4, len(pairs))
        for group, pair in enumerate(pairs):
            for which, header in enumerate(pair):
                array.rewrite_twin_header(group, which, header)
        rda = RDAManager(array)
        losers = rda.crash_scan(committed_txns={winner})
        for group, pair in enumerate(pairs):
            assert rda.current_twin(group) == select_current_twin(
                pair, {winner}), pair
        assert [entry.group for entry in losers] == [
            group for group, pair in enumerate(pairs)
            if loser in (pair[0].txn_id, pair[1].txn_id)]
        assert array.next_timestamp() == 6


class TestPageLsnVector:
    """The twin header's page LSNs move exactly with the parity (PR 23):
    a twin that absorbs page i's delta takes the caller's ``lsn`` as
    entry i and the other entries from the twin its payload came from."""

    @staticmethod
    def vectors(rda, group=0):
        return [rda.array.peek_twin(group, which)[1].page_lsns
                for which in (0, 1)]

    def test_steal_commit_flip_then_committed_write(self, rda):
        current = rda.current_twin(0)
        assert self.vectors(rda) == [(), ()]            # loaded: unknown
        rda.write_committed(1, make_page(b"c1"), lsn=5)
        assert self.vectors(rda)[current] == (0, 5, 0, 0)
        # first steal: into the free twin, seeded from the source twin
        rda.write_uncommitted(0, make_page(b"s1"), txn_id=1, lsn=7)
        assert self.vectors(rda)[1 - current] == (7, 5, 0, 0)
        assert self.vectors(rda)[current] == (0, 5, 0, 0)   # untouched
        # re-steal: in place on the working twin
        rda.write_uncommitted(0, make_page(b"s2"), txn_id=1, lsn=9)
        assert self.vectors(rda)[1 - current] == (9, 5, 0, 0)
        rda.commit_txn(1)                               # flip: no I/O
        assert rda.current_twin(0) == 1 - current
        rda.write_committed(2, make_page(b"c2"), lsn=11)
        assert self.vectors(rda)[1 - current] == (9, 5, 11, 0)
        assert self.vectors(rda)[current] == (0, 5, 0, 0)   # superseded

    def test_abort_leaves_the_survivors_pre_steal_entry(self, rda):
        current = rda.current_twin(0)
        rda.write_committed(0, make_page(b"c0"), lsn=3)
        rda.write_uncommitted(0, make_page(b"s"), txn_id=1, lsn=8)
        rda.abort_txn(1)
        assert rda.current_twin(0) == current
        assert self.vectors(rda)[current] == (3, 0, 0, 0)
        # and it is what a restart sees for the rewound page
        rda.crash_scan(committed_txns=set())
        assert rda.disk_page_lsns([0])[0] == 3

    def test_undo_of_a_never_written_group_promotes_with_the_vector(self):
        """Both twins still wear their formatted OBSOLETE headers: the
        survivor is re-stamped COMMITTED and carries (no) entries over,
        not the loser's."""
        rda = RDAManager(make_twin_raid5(4, 2))
        rda.write_uncommitted(0, make_page(b"s"), txn_id=1, lsn=8)
        survivor = 1 - rda.dirty_set.entry(0).working_twin
        rda.abort_txn(1)
        _, header = rda.array.peek_twin(0, survivor)
        assert header.state is TwinState.COMMITTED and header.page_lsns == ()

    def test_logged_write_into_a_dirty_group_stamps_both_twins(self, rda):
        rda.write_uncommitted(0, make_page(b"s"), txn_id=1, lsn=4)
        rda.write_committed(2, make_page(b"logged"), lsn=6)
        working = rda.dirty_set.entry(0).working_twin
        assert self.vectors(rda)[working] == (4, 0, 6, 0)
        assert self.vectors(rda)[1 - working] == (0, 0, 6, 0)
        # either outcome of the steal keeps page 2's entry
        rda.abort_txn(1)
        assert self.vectors(rda)[rda.current_twin(0)] == (0, 0, 6, 0)

    def test_promote_to_logged_carries_the_working_vector(self, rda):
        rda.write_committed(1, make_page(b"c1"), lsn=2)
        rda.write_uncommitted(0, make_page(b"s"), txn_id=1, lsn=4)
        working = rda.dirty_set.entry(0).working_twin
        rda.promote_to_logged(0, lambda *record: None)
        _, header = rda.array.peek_twin(0, working)
        assert header.state is TwinState.COMMITTED
        assert header.page_lsns == (4, 2, 0, 0)         # no new stamp

    def test_seal_keeps_the_vector(self, rda):
        rda.write_uncommitted(0, make_page(b"s"), txn_id=1, lsn=4)
        working = rda.dirty_set.entry(0).working_twin
        rda.commit_txn(1)
        assert rda.seal_stale_working_headers() == 1
        _, header = rda.array.peek_twin(0, working)
        assert header.state is TwinState.COMMITTED
        assert header.page_lsns == (4, 0, 0, 0)

    def test_group_write_stamps_every_written_page_in_one_header(self, rda):
        pages = rda.array.geometry.group_pages(1)
        rda.write_committed(pages[3], make_page(b"c"), lsn=2)
        writes = [(page, make_page(b"r%d" % page), None)
                  for page in pages[:2]]
        rda.write_group_committed(1, writes, lambda *label: None, lsn=9)
        assert self.vectors(rda, 1)[rda.current_twin(1)] == (9, 9, 0, 2)

    def test_resync_clears_and_never_invents(self, rda):
        rda.write_committed(0, make_page(b"c"), lsn=5)
        current = rda.current_twin(0)
        rda.resync_group(0)
        assert self.vectors(rda)[current] == ()

    @pytest.mark.parametrize("lost", ["current", "other"])
    def test_media_rebuild_of_either_twin_clears_it(self, rda, lost):
        rda.write_committed(0, make_page(b"c"), lsn=5)
        current = rda.current_twin(0)
        which = current if lost == "current" else 1 - current
        disk = rda.array.geometry.parity_addresses(0)[which].disk
        rda.array.fail_disk(disk)
        rda.rebuild_disk(disk)
        assert self.vectors(rda)[which] == ()
        if lost == "other":
            assert self.vectors(rda)[current] == (5, 0, 0, 0)

    def test_the_generic_array_write_clears_it(self, rda):
        rda.write_committed(0, make_page(b"c"), lsn=5)
        rda.array.write_page(1, make_page(b"plain"))    # a non-RDA engine
        assert self.vectors(rda)[rda.current_twin(0)] == ()


class TestScannedTwins:
    """What the crash scan keeps for the restore, and for how long."""

    def test_keeps_only_the_groups_asked_for(self, rda):
        rda.crash_scan(committed_txns=set())
        assert rda._scanned == {}
        rda.crash_scan(committed_txns=set(), keep={1, 4})
        assert set(rda._scanned) == {1, 4}
        for group, payload in rda._scanned.items():
            assert payload == rda.array.peek_twin(
                group, rda.current_twin(group))[0]

    def test_group_write_spends_it_and_reads_no_twin(self, rda):
        rda.crash_scan(committed_txns=set(), keep={1})
        page = rda.array.geometry.group_pages(1)[0]
        writes = [(page, make_page(b"new"), rda.array.peek_page(page))]
        with rda.array.stats.window() as w:
            rda.write_group_committed(1, writes, lambda *label: None)
        assert (w.reads, w.writes) == (0, 2)
        assert rda._scanned == {}
        assert rda.array.scrub() == []

    def test_undo_drops_the_losers_working_twin(self):
        """On a never-written group the scan-time current twin is the
        loser's WORKING one (the only non-OBSOLETE header); parity undo
        makes the other twin current, so the kept payload must go."""
        rda = RDAManager(make_twin_raid5(4, 2))
        rda.write_uncommitted(0, make_page(b"s"), txn_id=1)
        working = rda.dirty_set.entry(0).working_twin
        (loser,) = rda.crash_scan(committed_txns=set(), keep={0})
        assert rda.current_twin(0) == working and 0 in rda._scanned
        rda.undo_group(loser.group)
        assert rda._scanned == {}
        page = rda.array.geometry.group_pages(0)[1]
        rda.write_group_committed(0, [(page, make_page(b"r"), None)],
                                  lambda *label: None)
        assert rda.array.scrub() == []

    @pytest.mark.parametrize("touch", ["resync", "committed", "uncommitted",
                                       "lose_memory", "drop"])
    def test_anything_that_can_stale_it_drops_it(self, rda, touch):
        rda.crash_scan(committed_txns=set(), keep={0})
        if touch == "resync":
            rda.resync_group(0)
        elif touch == "committed":
            rda.write_committed(0, make_page(b"c"))
        elif touch == "uncommitted":
            rda.write_uncommitted(0, make_page(b"s"), txn_id=1)
        elif touch == "lose_memory":
            rda.lose_memory()
        else:
            rda.drop_scanned_twins()
        assert rda._scanned == {}


class TestStaleLsnReseal:
    """A page LSN at or above the recovered log's next LSN names a
    record the log lost: the scan zeroes it durably, and only it."""

    def test_scan_zeroes_what_the_log_no_longer_backs(self, rda):
        rda.write_committed(0, make_page(b"a"), lsn=4)
        rda.write_committed(1, make_page(b"b"), lsn=9)
        current = rda.current_twin(0)
        with rda.array.stats.window() as w:
            rda.crash_scan(committed_txns=set(), next_lsn=9)
        assert w.writes == 1                 # one header, the stale one
        assert rda.array.peek_twin(0, current)[1].page_lsns == (4, 0, 0, 0)
        assert rda.disk_page_lsns([0]) == {0: 4, 1: 0, 2: 0, 3: 0}
        with rda.array.stats.window() as w:
            rda.crash_scan(committed_txns=set(), next_lsn=9)
        assert w.writes == 0                 # durable: nothing left to do

    def test_scan_with_an_intact_log_writes_nothing(self, rda):
        rda.write_committed(1, make_page(b"b"), lsn=9)
        with rda.array.stats.window() as w:
            rda.crash_scan(committed_txns=set(), next_lsn=10)
        assert w.writes == 0


class TestParityHoleScrub:
    @pytest.mark.parametrize("make_array", [make_twin_raid5,
                                            make_twin_parity_striped])
    def test_finds_exactly_the_clean_groups_with_stale_parity(self, make_array):
        """The scrub XORs a group as one stripe row; under either page
        numbering that row must be the group ``compute_parity`` sees."""
        array = make_array(4, 6)
        geometry = array.geometry
        for page in range(geometry.num_data_pages):
            array.write_page(page, make_page(bytes([page + 1])))
        rda = RDAManager(array)
        assert rda.find_parity_holes() == []
        for group in range(geometry.num_groups):
            current = rda.current_twin(group)
            payload, header = array.peek_twin(group, current)
            assert payload == compute_parity(array.group_data_payloads(group))
            array.write_twin(group, current, make_page(b"stale"), header)
            assert rda.find_parity_holes() == [group]
            rda.resync_group(group)
        assert rda.find_parity_holes() == []

    def test_skips_dirty_groups(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        committed = 1 - rda.dirty_set.entry(group).working_twin
        _, header = rda.array.peek_twin(group, committed)
        rda.array.write_twin(group, committed, make_page(b"stale"), header)
        assert rda.find_parity_holes() == []


class TestMediaHooks:
    def test_rebuild_clean_disk(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        rda.commit_txn(1)
        victim = rda.array.geometry.data_address(0).disk
        rda.array.fail_disk(victim)
        report, must_commit = rda.rebuild_disk(victim)
        assert must_commit == set()
        assert rda.array.read_page(0) == make_page(b"x")

    def test_rebuild_preserves_undo_of_dirty_group(self, rda):
        before = original(0, rda)
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        working = rda.dirty_set.entry(group).working_twin
        working_disk = rda.array.geometry.parity_addresses(group)[working].disk
        rda.array.fail_disk(working_disk)
        report, must_commit = rda.rebuild_disk(working_disk)
        assert must_commit == set()
        rda.abort_txn(1)
        assert rda.array.read_page(0) == before

    def test_lost_committed_twin_adopt_pins_txn(self, rda):
        rda.write_uncommitted(0, make_page(b"x"), txn_id=1)
        group = rda.array.geometry.group_of(0)
        working = rda.dirty_set.entry(group).working_twin
        committed_disk = rda.array.geometry.parity_addresses(group)[1 - working].disk
        rda.array.fail_disk(committed_disk)
        report, must_commit = rda.rebuild_disk(committed_disk,
                                               on_lost_undo="adopt")
        assert must_commit == {1}
        assert not rda.dirty_set.is_dirty(group)
        assert rda.array.scrub() == []


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_random_interleaving_abort_restores_and_parity_holds(data):
    """Property: across random interleavings of steals, re-steals,
    committed writes, commits and aborts, (1) every aborted transaction's
    pages return to their pre-transaction images and (2) parity stays
    consistent."""
    array = make_twin_raid5(3, 4)
    for g in range(array.geometry.num_groups):
        array.full_stripe_write(
            g, [make_page(bytes([g + 1, i + 1]))
                for i in range(array.geometry.group_size)])
    rda = RDAManager(array)
    pristine = {p: array.peek_page(p) for p in range(array.num_data_pages)}
    expectations = dict(pristine)     # what each page should show at the end
    live = {}                         # txn -> {page: before_image}
    next_txn = [1]

    steps = data.draw(st.integers(5, 25), label="steps")
    for _ in range(steps):
        action = data.draw(st.sampled_from(
            ["steal", "commit", "abort", "committed_write"]), label="action")
        if action == "steal":
            page = data.draw(st.integers(0, array.num_data_pages - 1),
                             label="page")
            group = array.geometry.group_of(page)
            entry = rda.dirty_set.get(group)
            payload = data.draw(st.binary(min_size=PAGE_SIZE,
                                          max_size=PAGE_SIZE), label="payload")
            if entry is None:
                txn = next_txn[0]
                next_txn[0] += 1
                rda.write_uncommitted(page, payload, txn_id=txn)
                live[txn] = {page: expectations[page]}
            elif entry.page_id == page:
                rda.write_uncommitted(page, payload, txn_id=entry.txn_id)
            else:
                continue
        elif action == "committed_write":
            page = data.draw(st.integers(0, array.num_data_pages - 1),
                             label="cpage")
            group = array.geometry.group_of(page)
            entry = rda.dirty_set.get(group)
            if entry is not None and entry.page_id == page:
                continue   # would need promotion; out of scope here
            payload = data.draw(st.binary(min_size=PAGE_SIZE,
                                          max_size=PAGE_SIZE), label="cpayload")
            rda.write_committed(page, payload)
            expectations[page] = payload
        elif live:
            txn = data.draw(st.sampled_from(sorted(live)), label="txn")
            pages = live.pop(txn)
            if action == "commit":
                rda.commit_txn(txn)
                for page in pages:
                    expectations[page] = array.peek_page(page)
            else:
                rda.abort_txn(txn)
                for page, before in pages.items():
                    assert array.peek_page(page) == before

    for txn in sorted(live):
        rda.abort_txn(txn)
        for page, before in live[txn].items():
            assert array.peek_page(page) == before
    assert array.scrub() == []
    for page, expected in expectations.items():
        assert array.peek_page(page) == expected
