"""Tests for single-parity arrays: small writes, degraded mode, rebuild."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnrecoverableDataError
from repro.storage import (IOStats, make_page, make_parity_striped, make_raid5,
                           xor_pages)
from repro.storage.page import PAGE_SIZE


@pytest.fixture(params=["raid5", "parity_striped"])
def array(request):
    maker = make_raid5 if request.param == "raid5" else make_parity_striped
    return maker(4, 8)


def fill(array, seed=0):
    """Load every data page with a distinct payload; returns the payloads."""
    payloads = {}
    for p in range(array.num_data_pages):
        payload = make_page(bytes([(p + seed) % 256, (p * 7 + seed) % 256]))
        array.write_page(p, payload)
        payloads[p] = payload
    return payloads


class TestSmallWrite:
    def test_write_then_read(self, array):
        array.write_page(3, make_page(b"three"))
        assert array.read_page(3) == make_page(b"three")

    def test_parity_maintained(self, array):
        fill(array)
        assert array.scrub() == []

    def test_small_write_costs_four_transfers(self, array):
        array.write_page(0, make_page(1))
        with array.stats.window() as w:
            array.write_page(0, make_page(2))
        assert w.total == 4
        assert w.reads == 2 and w.writes == 2

    def test_small_write_with_buffered_old_costs_three(self, array):
        old = make_page(1)
        array.write_page(0, old)
        with array.stats.window() as w:
            array.write_page(0, make_page(2), old_data=old)
        assert w.total == 3
        assert w.reads == 1 and w.writes == 2

    def test_read_costs_one_transfer(self, array):
        array.write_page(0, make_page(1))
        with array.stats.window() as w:
            array.read_page(0)
        assert w.total == 1

    def test_wrong_size_rejected(self, array):
        with pytest.raises(ValueError):
            array.write_page(0, b"tiny")

    def test_stale_old_data_breaks_parity(self, array):
        """The 3-transfer path trusts the caller; a wrong old image must
        be detectable by the scrubber (documents the contract)."""
        array.write_page(0, make_page(1))
        array.write_page(0, make_page(2), old_data=make_page(9))
        assert array.scrub() != []


class TestFullStripeWrite:
    def test_costs_n_plus_one_writes(self, array):
        payloads = [make_page(i + 1) for i in range(4)]
        with array.stats.window() as w:
            array.full_stripe_write(0, payloads)
        assert w.reads == 0
        assert w.writes == 5

    def test_parity_correct(self, array):
        payloads = [make_page(i + 1) for i in range(4)]
        array.full_stripe_write(2, payloads)
        assert array.scrub() == []
        for page, payload in zip(array.geometry.group_pages(2), payloads):
            assert array.read_page(page) == payload

    def test_wrong_count_rejected(self, array):
        with pytest.raises(ValueError):
            array.full_stripe_write(0, [make_page(1)])


class TestDegradedMode:
    def test_degraded_read_reconstructs(self, array):
        payloads = fill(array)
        victim = array.geometry.data_address(5).disk
        array.fail_disk(victim)
        assert array.read_page(5) == payloads[5]

    def test_degraded_read_costs_group_size_transfers(self, array):
        fill(array)
        victim = array.geometry.data_address(5).disk
        array.fail_disk(victim)
        with array.stats.window() as w:
            array.read_page(5)
        assert w.total == array.geometry.group_size  # N-1 data + 1 parity

    def test_write_to_failed_data_disk_absorbed_by_parity(self, array):
        payloads = fill(array)
        victim = array.geometry.data_address(5).disk
        array.fail_disk(victim)
        array.write_page(5, make_page(b"new5"))
        assert array.read_page(5) == make_page(b"new5")
        # other pages unaffected
        group = array.geometry.group_of(5)
        for mate in array.geometry.group_pages(group):
            if mate != 5:
                assert array.read_page(mate) == payloads[mate]

    def test_write_with_failed_parity_disk(self, array):
        fill(array)
        group = array.geometry.group_of(0)
        parity_disk = array.geometry.parity_addresses(group)[0].disk
        array.fail_disk(parity_disk)
        array.write_page(0, make_page(b"np"))
        assert array.read_page(0) == make_page(b"np")

    def test_double_failure_unrecoverable(self, array):
        fill(array)
        group = array.geometry.group_of(0)
        disks = [array.geometry.data_address(p).disk
                 for p in array.geometry.group_pages(group)]
        array.fail_disk(disks[0])
        array.fail_disk(disks[1])
        with pytest.raises(UnrecoverableDataError):
            array.read_page(0)

    def test_data_plus_parity_failure_unrecoverable(self, array):
        fill(array)
        group = array.geometry.group_of(0)
        array.fail_disk(array.geometry.data_address(0).disk)
        array.fail_disk(array.geometry.parity_addresses(group)[0].disk)
        with pytest.raises(UnrecoverableDataError):
            array.read_page(0)


class TestRebuild:
    @pytest.mark.parametrize("victim", [0, 2, 4])
    def test_rebuild_restores_exact_contents(self, array, victim):
        payloads = fill(array)
        array.fail_disk(victim)
        array.rebuild_disk(victim)
        assert array.failed_disks() == []
        assert array.scrub() == []
        for page, payload in payloads.items():
            assert array.read_page(page) == payload

    def test_rebuild_slot_count(self, array):
        fill(array)
        array.fail_disk(0)
        rebuilt = array.rebuild_disk(0)
        data_slots = len(array.geometry.pages_on_disk(0))
        parity_slots = len(array.geometry.groups_with_parity_on(0))
        assert rebuilt == data_slots + parity_slots

    def test_rebuild_with_second_failure_raises(self, array):
        fill(array)
        array.fail_disk(0)
        array.fail_disk(1)
        with pytest.raises(UnrecoverableDataError):
            array.rebuild_disk(0)


class TestLoadBalance:
    def test_rotated_parity_spreads_writes(self):
        """RAID-4 would hammer one parity disk; rotation must not."""
        array = make_raid5(4, 20)
        for p in range(array.num_data_pages):
            array.write_page(p, make_page(p % 256))
        assert array.stats.imbalance() < 1.5


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_write_sequences_keep_parity(data):
    """Property: any sequence of small writes leaves every group's parity
    equal to the XOR of its data pages."""
    array = make_raid5(data.draw(st.integers(2, 5), label="N"),
                       data.draw(st.integers(2, 6), label="G"))
    operations = data.draw(st.lists(
        st.tuples(st.integers(0, array.num_data_pages - 1),
                  st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE),
                  st.booleans()),
        max_size=30), label="ops")
    shadow = {p: bytes(PAGE_SIZE) for p in range(array.num_data_pages)}
    for page, payload, use_buffered in operations:
        old = shadow[page] if use_buffered else None
        array.write_page(page, payload, old_data=old)
        shadow[page] = payload
    assert array.scrub() == []
    for page, expected in shadow.items():
        assert array.peek_page(page) == expected


# -- the group-resident body against k sequential small writes ---------------


def _group_case(data):
    """Two equally filled arrays, a group, and 1…N writes into it in
    page order, each old image buffered or not."""
    maker = data.draw(st.sampled_from([make_raid5, make_parity_striped]))
    grouped, sequential = maker(4, 8), maker(4, 8)
    fill(grouped)
    fill(sequential)
    group = data.draw(st.integers(0, grouped.geometry.num_groups - 1))
    pages = sorted(data.draw(st.lists(
        st.sampled_from(grouped.geometry.group_pages(group)), min_size=1,
        unique=True), label="pages"))
    writes = [(page,
               data.draw(st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE)),
               grouped.peek_page(page) if data.draw(st.booleans()) else None)
              for page in pages]
    return grouped, sequential, group, writes


def _image(array):
    return [[disk.peek(slot) for slot in range(disk.capacity)]
            for disk in array.disks]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_body_matches_sequential_small_writes(data):
    """``write_group`` leaves what k ``write_page`` calls leave, for
    2·(k − 1) fewer transfers (2·k + 2 − buffered), each label
    immediately before its write."""
    grouped, sequential, group, writes = _group_case(data)
    log = []
    for disk in grouped.disks:
        disk.on_access = lambda disk_id, slot, kind: log.append(kind)
    filled = grouped.stats.snapshot()
    grouped.write_group(group, writes,
                        lambda what, number: log.append((what, number)))
    for page, payload, old in writes:
        sequential.write_page(page, payload, old_data=old)

    assert _image(grouped) == _image(sequential)
    assert grouped.scrub() == []
    k = len(writes)
    buffered = sum(old is not None for _, _, old in writes)
    cost = grouped.stats.snapshot() - filled
    assert (cost.reads, cost.writes) == (k + 1 - buffered, k + 1)
    assert sequential.stats.total - grouped.stats.total == 2 * (k - 1)
    assert log == (["read"] * (k + 1 - buffered)
                   + [step for page, _, _ in writes
                      for step in (("page", page), "write")]
                   + [("parity group", group), "write"])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_group_body_with_a_failed_disk_is_the_per_page_path(data):
    grouped, sequential, group, writes = _group_case(data)
    (parity,) = grouped.geometry.parity_addresses(group)
    failed = data.draw(st.sampled_from(
        [parity.disk] + [grouped.geometry.data_address(page).disk
                         for page, _, _ in writes]), label="failed")
    grouped.fail_disk(failed)
    sequential.fail_disk(failed)
    labels = []
    grouped.write_group(group, writes,
                        lambda what, number: labels.append((what, number)))
    for page, payload, old in writes:
        sequential.write_page(page, payload, old_data=old)
    assert _image(grouped) == _image(sequential)
    assert grouped.stats == sequential.stats
    assert labels == [("page", page) for page, _, _ in writes]


def test_a_two_page_group_keeps_the_reconstruct_write():
    """N = 2: one unbuffered page costs N + 1 = 3 through the per-page
    path; the group body would read the parity and pay 4."""
    array = make_raid5(2, 4)
    fill(array)
    before = array.stats.total
    array.write_group(1, [(array.geometry.group_pages(1)[0],
                           make_page(b"new"), None)])
    assert array.stats.total - before == 3
    assert array.scrub() == []
