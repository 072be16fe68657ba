"""Tests for the twin-parity array: the mechanical substrate of RDA recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RDAManager
from repro.errors import UnrecoverableDataError
from repro.storage import (DirtyGroupInfo, ParityHeader, TwinState, TwinUpdate,
                           make_page, make_twin_parity_striped, make_twin_raid5,
                           select_current_twin, xor_pages)
from repro.storage.page import NO_TXN, PAGE_SIZE


@pytest.fixture(params=["raid5", "parity_striped"])
def array(request):
    maker = make_twin_raid5 if request.param == "raid5" else make_twin_parity_striped
    return maker(4, 8)


def load(array):
    """Bulk-load every group; returns {page: payload}."""
    payloads = {}
    for g in range(array.geometry.num_groups):
        group_payloads = [make_page(bytes([g + 1, i + 1]))
                          for i in range(array.geometry.group_size)]
        array.full_stripe_write(g, group_payloads)
        for page, payload in zip(array.geometry.group_pages(g), group_payloads):
            payloads[page] = payload
    return payloads


def working_header(array, txn_id, dirty_index):
    return ParityHeader(timestamp=array.next_timestamp(), txn_id=txn_id,
                        dirty_page_index=dirty_index, state=TwinState.WORKING)


class TestFullStripe:
    def test_load_consistent(self, array):
        load(array)
        assert array.scrub() == []

    def test_twin_states_after_load(self, array):
        load(array)
        _, h0 = array.peek_twin(0, 0)
        _, h1 = array.peek_twin(0, 1)
        assert h0.state is TwinState.COMMITTED
        assert h1.state is TwinState.OBSOLETE
        assert h0.timestamp > h1.timestamp

    def test_wrong_payload_count(self, array):
        with pytest.raises(ValueError):
            array.full_stripe_write(0, [make_page(1)])


class TestSelectCurrentTwin:
    def test_committed_beats_obsolete(self):
        headers = (ParityHeader(5, state=TwinState.COMMITTED),
                   ParityHeader(9, state=TwinState.OBSOLETE))
        assert select_current_twin(headers) == 0

    def test_working_trusted_at_runtime(self):
        headers = (ParityHeader(5, state=TwinState.COMMITTED),
                   ParityHeader(9, txn_id=7, state=TwinState.WORKING))
        assert select_current_twin(headers) == 1

    def test_working_needs_commit_proof_during_recovery(self):
        headers = (ParityHeader(5, state=TwinState.COMMITTED),
                   ParityHeader(9, txn_id=7, state=TwinState.WORKING))
        assert select_current_twin(headers, committed_txns=set()) == 0
        assert select_current_twin(headers, committed_txns={7}) == 1

    def test_invalid_never_wins(self):
        headers = (ParityHeader(5, state=TwinState.COMMITTED),
                   ParityHeader(9, state=TwinState.INVALID))
        assert select_current_twin(headers) == 0

    def test_timestamp_breaks_committed_tie(self):
        headers = (ParityHeader(5, state=TwinState.COMMITTED),
                   ParityHeader(9, state=TwinState.COMMITTED))
        assert select_current_twin(headers) == 1

    def test_fallback_when_nothing_valid(self):
        headers = (ParityHeader(2, state=TwinState.OBSOLETE),
                   ParityHeader(1, state=TwinState.OBSOLETE))
        assert select_current_twin(headers) == 0


class TestSmallWrite:
    def test_single_twin_update_costs_four(self, array):
        load(array)
        header = working_header(array, txn_id=1, dirty_index=0)
        with array.stats.window() as w:
            array.small_write(0, make_page(b"new"),
                              [TwinUpdate(source=0, target=1, header=header)])
        assert w.total == 4

    def test_single_twin_update_with_buffered_old_costs_three(self, array):
        payloads = load(array)
        header = working_header(array, 1, 0)
        with array.stats.window() as w:
            array.small_write(0, make_page(b"new"),
                              [TwinUpdate(0, 1, header)],
                              old_data=payloads[0])
        assert w.total == 3

    def test_both_twin_update_costs_six(self, array):
        """The model's `a + 2` term: a write into a dirty group updates
        both twins (paper Section 5.2.1)."""
        load(array)
        updates = [TwinUpdate(0, 0, ParityHeader(timestamp=array.next_timestamp(),
                                                 state=TwinState.COMMITTED)),
                   TwinUpdate(1, 1, working_header(array, 1, 0))]
        with array.stats.window() as w:
            array.small_write(1, make_page(b"x"), updates)
        assert w.total == 6

    def test_undo_identity_on_disk(self, array):
        """D_old = P_working ⊕ P_committed ⊕ D_new with real twin I/O."""
        payloads = load(array)
        page = 2
        group = array.geometry.group_of(page)
        header = working_header(array, 9, array.geometry.index_in_group(page))
        array.small_write(page, make_page(b"uncommitted"),
                          [TwinUpdate(0, 1, header)])
        (p0, h0), (p1, h1) = array.read_twins(group)
        assert h1.state is TwinState.WORKING
        before = xor_pages(p1, p0, array.read_page(page))
        assert before == payloads[page]

    def test_working_twin_in_place_resteal(self, array):
        """Same page re-stolen: update the working twin from itself."""
        payloads = load(array)
        page = 2
        group = array.geometry.group_of(page)
        idx = array.geometry.index_in_group(page)
        array.small_write(page, make_page(b"v1"),
                          [TwinUpdate(0, 1, working_header(array, 9, idx))])
        array.small_write(page, make_page(b"v2"),
                          [TwinUpdate(1, 1, working_header(array, 9, idx))])
        (p0, _), (p1, _) = array.read_twins(group)
        assert xor_pages(p1, p0, array.read_page(page)) == payloads[page]

    def test_empty_updates_rejected(self, array):
        with pytest.raises(ValueError):
            array.small_write(0, make_page(1), [])

    def test_wrong_size_rejected(self, array):
        with pytest.raises(ValueError):
            array.small_write(0, b"small", [TwinUpdate(0, 1, ParityHeader())])

    def test_rewrite_twin_header_costs_one(self, array):
        load(array)
        with array.stats.window() as w:
            array.rewrite_twin_header(0, 1, ParityHeader(state=TwinState.INVALID))
        assert w.total == 1
        _, header = array.peek_twin(0, 1)
        assert header.state is TwinState.INVALID


class TestTimestamps:
    def test_monotonic(self, array):
        stamps = [array.next_timestamp() for _ in range(5)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 5

    def test_observe_advances(self, array):
        array.observe_timestamp(100)
        assert array.next_timestamp() == 101

    def test_observe_never_regresses(self, array):
        first = array.next_timestamp()
        array.observe_timestamp(0)
        assert array.next_timestamp() == first + 1


class TestStaleWorkingHeaders:
    """Commit never rewrites the superseded twin, so clean groups can
    show TWO WORKING headers on disk; timestamp order must win."""

    def _two_working_twins(self, array):
        """Alternate steals into both twins, as commits would leave them."""
        load(array)
        page = 0
        # steal into twin 1 (txn 1 'commits': header stays WORKING on disk)
        array.small_write(page, make_page(b"v1"),
                          [TwinUpdate(0, 1, working_header(array, 1, 0))])
        # next transaction steals into twin 0, seeded from twin 1
        array.small_write(page, make_page(b"v2"),
                          [TwinUpdate(1, 0, working_header(array, 2, 0))])
        return page

    def test_reconstruction_uses_newest_working_twin(self, array):
        page = self._two_working_twins(array)
        victim = array.geometry.data_address(page).disk
        array.fail_disk(victim)
        assert array.read_page(page) == make_page(b"v2")

    def test_scrub_accepts_two_working_twins(self, array):
        self._two_working_twins(array)
        assert array.scrub() == []


class TestDegradedAndRebuild:
    def test_degraded_read_clean_group(self, array):
        payloads = load(array)
        victim = array.geometry.data_address(0).disk
        array.fail_disk(victim)
        assert array.read_page(0) == payloads[0]

    def test_degraded_read_dirty_group_sees_new_data(self, array):
        """Reconstruction must use the WORKING twin (it matches the
        on-disk data including the stolen page)."""
        load(array)
        page = 0
        group = array.geometry.group_of(page)
        idx = array.geometry.index_in_group(page)
        array.small_write(page, make_page(b"stolen"),
                          [TwinUpdate(0, 1, working_header(array, 3, idx))])
        victim = array.geometry.data_address(page).disk
        array.fail_disk(victim)
        assert array.read_page(page) == make_page(b"stolen")
        # group mates still reconstructable too
        mate = next(p for p in array.geometry.group_pages(group) if p != page)
        mate_disk = array.geometry.data_address(mate).disk
        array.disks[victim].revive()
        array.fail_disk(mate_disk)
        assert array.read_page(mate) == make_page(bytes([group + 1, 2]))

    def test_rebuild_clean_disk(self, array):
        payloads = load(array)
        array.fail_disk(0)
        report = array.rebuild_disk(0)
        assert report.lost_undo_groups == ()
        assert array.scrub() == []
        for page, payload in payloads.items():
            assert array.read_page(page) == payload

    def test_rebuild_lost_working_twin(self, array):
        """Failing the disk holding the WORKING twin of a dirty group:
        rebuild recomputes it from data; undo capability survives."""
        payloads = load(array)
        page = 0
        group = array.geometry.group_of(page)
        idx = array.geometry.index_in_group(page)
        stamp_header = working_header(array, 3, idx)
        array.small_write(page, make_page(b"stolen"),
                          [TwinUpdate(0, 1, stamp_header)])
        working_disk = array.geometry.parity_addresses(group)[1].disk
        array.fail_disk(working_disk)
        info = {group: DirtyGroupInfo(txn_id=3, dirty_page_index=idx,
                                      working_timestamp=stamp_header.timestamp,
                                      working_twin=1)}
        array.rebuild_disk(working_disk, dirty_info=info)
        (p0, h0), (p1, h1) = array.read_twins(group)
        # find the rebuilt working twin and check undo still works
        if h0.state is TwinState.WORKING:
            working_payload, committed_payload = p0, p1
        else:
            working_payload, committed_payload = p1, p0
        before = xor_pages(working_payload, committed_payload, array.read_page(page))
        assert before == payloads[page]

    def test_rebuild_lost_committed_twin_raises(self, array):
        load(array)
        page = 0
        group = array.geometry.group_of(page)
        idx = array.geometry.index_in_group(page)
        header = working_header(array, 3, idx)
        array.small_write(page, make_page(b"stolen"), [TwinUpdate(0, 1, header)])
        committed_disk = array.geometry.parity_addresses(group)[0].disk
        array.fail_disk(committed_disk)
        info = {group: DirtyGroupInfo(3, idx, header.timestamp, 1)}
        with pytest.raises(UnrecoverableDataError):
            array.rebuild_disk(committed_disk, dirty_info=info)

    def test_rebuild_lost_committed_twin_adopt(self, array):
        load(array)
        page = 0
        group = array.geometry.group_of(page)
        idx = array.geometry.index_in_group(page)
        header = working_header(array, 3, idx)
        array.small_write(page, make_page(b"stolen"), [TwinUpdate(0, 1, header)])
        committed_disk = array.geometry.parity_addresses(group)[0].disk
        array.fail_disk(committed_disk)
        info = {group: DirtyGroupInfo(3, idx, header.timestamp, 1)}
        report = array.rebuild_disk(committed_disk, dirty_info=info,
                                    on_lost_undo="adopt")
        assert group in report.lost_undo_groups
        # the adopted twin matches current data: array is media-consistent
        assert array.scrub() == []

    def test_rebuild_rejects_bad_policy(self, array):
        with pytest.raises(ValueError):
            array.rebuild_disk(0, on_lost_undo="ignore")


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_twin_undo_identity_random(data):
    """Property: after a random prefix of committed writes, a steal +
    arbitrarily many re-steals of one page is always undoable from the
    twins alone."""
    array = make_twin_raid5(data.draw(st.integers(2, 5), label="N"),
                            data.draw(st.integers(2, 5), label="G"))
    for g in range(array.geometry.num_groups):
        array.full_stripe_write(
            g, [make_page(bytes([g, i])) for i in range(array.geometry.group_size)])
    page = data.draw(st.integers(0, array.num_data_pages - 1), label="page")
    group = array.geometry.group_of(page)
    idx = array.geometry.index_in_group(page)
    before_image = array.peek_page(page)

    # committed writes to OTHER pages of the same group, applied in place
    # to the committed twin (twin 0 after full_stripe_write)
    others = [p for p in array.geometry.group_pages(group) if p != page]
    for other in data.draw(st.lists(st.sampled_from(others), max_size=4),
                           label="pre"):
        array.small_write(other, data.draw(
            st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE)),
            [TwinUpdate(0, 0, ParityHeader(timestamp=array.next_timestamp(),
                                           state=TwinState.COMMITTED))])
    before_image = array.peek_page(page)

    versions = data.draw(st.lists(
        st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE), min_size=1,
        max_size=4), label="versions")
    source = 0
    for payload in versions:
        header = ParityHeader(timestamp=array.next_timestamp(), txn_id=1,
                              dirty_page_index=idx, state=TwinState.WORKING)
        array.small_write(page, payload, [TwinUpdate(source, 1, header)])
        source = 1
    (p0, _), (p1, _) = array.read_twins(group)
    assert xor_pages(p1, p0, array.read_page(page)) == before_image


# -- the inline single-twin body against the general small write --------------

_KINDS = ("first_steal", "resteal", "committed")


def _logged_array(maker, log):
    """A loaded array whose group ``g`` (odd ``g``) already carries a
    steal of its first page in twin 1, with every disk access and
    ``twin_write`` barrier appended to ``log``."""
    array = maker(4, 8)
    load(array)
    for g in range(1, array.geometry.num_groups, 2):
        page = array.geometry.group_pages(g)[0]
        array.small_write(page, make_page(bytes([0xA0 + g])),
                          [TwinUpdate(0, 1, working_header(array, 7, 0))],
                          twin_first=True)
    for disk in array.disks:
        disk.on_access = lambda disk_id, slot, kind: log.append(
            (kind, disk_id, slot))
    array.barrier_hook = lambda name, **ctx: log.append((name, ctx["page"]))
    return array


def _disk_image(array):
    return [[(disk.peek(slot), disk.peek_header(slot))
             for slot in range(disk.capacity)] for disk in array.disks]


def _draw_op(data, array, group):
    """One single-twin op on ``group``: ``(page, payload, update, old,
    twin_first)`` — a first steal, a re-steal of the page the set-up
    stole, or a committed write, with the old image buffered or not."""
    stolen = group % 2 == 1
    kind = data.draw(st.sampled_from(_KINDS if stolen else
                                     ("first_steal", "committed")))
    pages = array.geometry.group_pages(group)
    page = pages[0] if kind == "resteal" else data.draw(
        st.sampled_from(pages))
    stamp = array.next_timestamp()
    if kind == "committed":
        update = TwinUpdate(0, 0, ParityHeader(
            timestamp=stamp, state=TwinState.COMMITTED))
    else:
        header = ParityHeader(
            timestamp=stamp, txn_id=9, state=TwinState.WORKING,
            dirty_page_index=array.geometry.index_in_group(page))
        update = TwinUpdate(1 if kind == "resteal" else 0, 1, header)
    old = array.peek_page(page) if data.draw(st.booleans()) else None
    return (page, data.draw(st.binary(min_size=PAGE_SIZE,
                                      max_size=PAGE_SIZE)),
            update, old, data.draw(st.booleans()))


def _touched_disks(array, page, update):
    parity = array.geometry.parity_addresses(array.geometry.group_of(page))
    return [array.geometry.data_address(page).disk,
            parity[update.source].disk, parity[update.target].disk]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inline_body_matches_general_small_write(data):
    """1…G single-twin ops on distinct groups through ``small_write``
    (which takes the inline body on healthy disks) are the same ops
    through the general ``_small_write_inner``: same disk slots and twin
    headers, same ``IOStats``, same access / ``twin_write`` order."""
    maker = data.draw(st.sampled_from([make_twin_raid5,
                                       make_twin_parity_striped]))
    inline_log, general_log = [], []
    inline = _logged_array(maker, inline_log)
    general = _logged_array(maker, general_log)
    groups = data.draw(st.lists(
        st.integers(0, inline.geometry.num_groups - 1), min_size=1,
        max_size=inline.geometry.num_groups, unique=True), label="groups")

    for group in groups:
        page, payload, update, old, twin_first = _draw_op(data, inline, group)
        assert general.next_timestamp() == update.header.timestamp
        inline.small_write(page, payload, [update], old_data=old,
                           twin_first=twin_first)
        general._small_write_inner(page, payload, [update], old, twin_first)
        # the barrier follows the page's writes on either body
        general_log.append(("twin_write", page))

    assert _disk_image(inline) == _disk_image(general)
    assert inline.stats == general.stats
    assert inline_log == general_log
    assert inline.scrub() == general.scrub()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_failed_touched_disk_takes_the_general_path(data):
    """With any one of the three disks an op touches (data, source twin,
    target twin) failed, ``small_write`` is ``_small_write_inner``."""
    maker = data.draw(st.sampled_from([make_twin_raid5,
                                       make_twin_parity_striped]))
    via_log, direct_log = [], []
    via = _logged_array(maker, via_log)
    direct = _logged_array(maker, direct_log)
    group = data.draw(st.integers(0, via.geometry.num_groups - 1))
    page, payload, update, old, twin_first = _draw_op(data, via, group)
    failed = data.draw(st.sampled_from(_touched_disks(via, page, update)))
    via.fail_disk(failed)
    direct.fail_disk(failed)

    via.small_write(page, payload, [update], old_data=old,
                    twin_first=twin_first)
    direct._small_write_inner(page, payload, [update], old, twin_first)
    direct_log.append(("twin_write", page))

    assert _disk_image(via) == _disk_image(direct)
    assert via.stats == direct.stats
    assert via_log == direct_log


# -- the group-resident body against k sequential committed writes ------------


def _managed(maker):
    array = maker(4, 8)
    load(array)
    return RDAManager(array)


def _draw_group_writes(data, array, group):
    """1…N pages of ``group`` in page order, each with a new payload and
    its old image buffered or not."""
    pages = sorted(data.draw(st.lists(
        st.sampled_from(array.geometry.group_pages(group)), min_size=1,
        unique=True), label="pages"))
    return [(page,
             data.draw(st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE)),
             array.peek_page(page) if data.draw(st.booleans()) else None)
            for page in pages]


def _payloads_and_states(array):
    """The disk image with header timestamps left out: the group body
    stamps its twin once where k writes stamped it k times."""
    return [[(disk.peek(slot), disk.peek_header(slot).state)
             for slot in range(disk.capacity)] for disk in array.disks]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_group_body_matches_sequential_committed_writes(data):
    """k pages of one clean group through ``write_group_committed`` leave
    the data pages, the current twin's payload and header state and the
    untouched other twin that k ``write_committed`` calls leave, for
    2·(k − 1) fewer transfers: 2·k + 2 − buffered.  Each label comes
    immediately before its write, the barrier once, after the twin."""
    maker = data.draw(st.sampled_from([make_twin_raid5,
                                       make_twin_parity_striped]))
    grouped, sequential = _managed(maker), _managed(maker)
    array = grouped.array
    group = data.draw(st.integers(0, array.geometry.num_groups - 1))
    writes = _draw_group_writes(data, array, group)
    current = grouped.current_twin(group)
    other_twin = array.peek_twin(group, 1 - current)

    log = []
    for disk in array.disks:
        disk.on_access = lambda disk_id, slot, kind: log.append(kind)
    array.barrier_hook = lambda name, **ctx: log.append((name, ctx["group"]))
    loaded = array.stats.snapshot()
    grouped.write_group_committed(
        group, writes, lambda what, number: log.append((what, number)))
    for page, payload, old in writes:
        sequential.write_committed(page, payload, old_data=old)

    assert _payloads_and_states(array) == \
        _payloads_and_states(sequential.array)
    assert array.peek_twin(group, 1 - current) == other_twin
    assert array.scrub() == []
    k = len(writes)
    buffered = sum(old is not None for _, _, old in writes)
    cost = array.stats.snapshot() - loaded
    assert (cost.reads, cost.writes) == (k + 1 - buffered, k + 1)
    assert sequential.array.stats.total - array.stats.total == 2 * (k - 1)
    assert log == (["read"] * (k + 1 - buffered)
                   + [step for page, _, _ in writes
                      for step in (("page", page), "write")]
                   + [("parity group", group), "write",
                      ("twin_write", group)])
    # the manager's main-memory map tracks the one header it stamped
    assert grouped.current_twin(group) == current
    assert grouped._cached_headers(group)[current] == \
        array.peek_twin(group, current)[1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_group_body_with_a_failed_disk_is_the_sequential_path(data):
    """A failed data disk under one of the pages, or a failed current
    twin disk: page by page through the general small write, transfer
    for transfer what k ``write_committed`` calls do."""
    maker = data.draw(st.sampled_from([make_twin_raid5,
                                       make_twin_parity_striped]))
    grouped, sequential = _managed(maker), _managed(maker)
    array = grouped.array
    group = data.draw(st.integers(0, array.geometry.num_groups - 1))
    writes = _draw_group_writes(data, array, group)
    twin = array.geometry.parity_addresses(group)[grouped.current_twin(group)]
    failed = data.draw(st.sampled_from(
        [twin.disk] + [array.geometry.data_address(page).disk
                       for page, _, _ in writes]), label="failed")
    array.fail_disk(failed)
    sequential.array.fail_disk(failed)

    labels = []
    grouped.write_group_committed(
        group, writes, lambda what, number: labels.append((what, number)))
    for page, payload, old in writes:
        sequential.write_committed(page, payload, old_data=old)

    assert _payloads_and_states(array) == \
        _payloads_and_states(sequential.array)
    assert array.stats == sequential.array.stats
    assert labels == [("page", page) for page, _, _ in writes]
