"""Tests for GF(2^8) arithmetic and the RAID-6 double-parity array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnrecoverableDataError
from repro.storage import make_page
from repro.storage.gf256 import (gf_div, gf_mul, gf_pow, page_mul, page_xor,
                                 q_parity, solve_two_erasures)
from repro.storage.page import PAGE_SIZE
from repro.storage.raid6 import make_raid6

bytes_pages = st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE)
elements = st.integers(0, 255)


class TestGF256:
    @given(elements, elements)
    def test_mul_commutative(self, a, b):
        assert gf_mul(a, b) == gf_mul(b, a)

    @given(elements.filter(bool), elements.filter(bool))
    def test_div_inverts_mul(self, a, b):
        assert gf_div(gf_mul(a, b), b) == a

    @given(elements)
    def test_identity_and_zero(self, a):
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0

    @given(elements, elements, elements)
    def test_distributive_over_xor(self, a, b, c):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    def test_generator_order(self):
        seen = set()
        for exponent in range(255):
            seen.add(gf_pow(2, exponent))
        assert len(seen) == 255      # full multiplicative group

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    @given(st.lists(bytes_pages, min_size=2, max_size=5), st.data())
    def test_solve_two_erasures(self, group, data):
        """Property: the 2x2 solver recovers any two members exactly."""
        i = data.draw(st.integers(0, len(group) - 1))
        j = data.draw(st.integers(0, len(group) - 1).filter(lambda x: x != i))
        i, j = sorted((i, j))
        p = group[0]
        for page in group[1:]:
            p = page_xor(p, page)
        q = q_parity(group)
        p_star, q_star = p, q
        for index, page in enumerate(group):
            if index in (i, j):
                continue
            p_star = page_xor(p_star, page)
            q_star = page_xor(q_star, page_mul(gf_pow(2, index), page))
        d_i, d_j = solve_two_erasures(i, j, p_star, q_star)
        assert d_i == group[i]
        assert d_j == group[j]

    def test_solver_rejects_same_index(self):
        with pytest.raises(ValueError):
            solve_two_erasures(1, 1, bytes(4), bytes(4))


@pytest.fixture
def array():
    array = make_raid6(4, 8)
    for g in range(8):
        array.full_stripe_write(
            g, [make_page(bytes([g + 1, i + 1])) for i in range(4)])
    return array


class TestRaid6Array:
    def test_load_consistent(self, array):
        assert array.scrub() == []

    def test_small_write_maintains_both_parities(self, array):
        array.write_page(0, make_page(b"new"))
        array.write_page(5, make_page(b"other"))
        assert array.scrub() == []

    def test_small_write_costs_six(self, array):
        with array.stats.window() as w:
            array.write_page(0, make_page(b"x"))
        assert w.total == 6
        with array.stats.window() as w:
            array.write_page(0, make_page(b"y"), old_data=make_page(b"x"))
        assert w.total == 5

    def test_group_write_is_a_small_write_per_page(self, array):
        """No group-resident body on P + Q: six transfers a page, a
        label before each."""
        pages = array.geometry.group_pages(0)[:2]
        labels = []
        with array.stats.window() as w:
            array.write_group(0, [(page, make_page(b"g%d" % page), None)
                                  for page in pages],
                              lambda *label: labels.append(label))
        assert w.total == 12
        assert labels == [("page", page) for page in pages]
        assert array.scrub() == []

    def test_single_failure_degraded_read(self, array):
        expected = array.peek_page(0)
        array.fail_disk(array.geometry.data_address(0).disk)
        assert array.read_page(0) == expected

    def test_double_data_failure_degraded_read(self, array):
        group = array.geometry.group_of(0)
        pages = array.geometry.group_pages(group)
        expected = {p: array.peek_page(p) for p in pages[:2]}
        for p in pages[:2]:
            array.fail_disk(array.geometry.data_address(p).disk)
        for p, payload in expected.items():
            assert array.read_page(p) == payload

    def test_data_plus_p_failure(self, array):
        expected = array.peek_page(0)
        group = array.geometry.group_of(0)
        array.fail_disk(array.geometry.data_address(0).disk)
        array.fail_disk(array._p_addr(group).disk)
        assert array.read_page(0) == expected

    def test_triple_failure_unrecoverable(self, array):
        group = array.geometry.group_of(0)
        pages = array.geometry.group_pages(group)
        for p in pages[:2]:
            array.fail_disk(array.geometry.data_address(p).disk)
        array.fail_disk(array._p_addr(group).disk)
        with pytest.raises(UnrecoverableDataError):
            array.read_page(0)

    def test_rebuild_after_double_failure(self, array):
        snapshot = {p: array.peek_page(p)
                    for p in range(array.num_data_pages)}
        array.fail_disk(0)
        array.fail_disk(1)
        array.rebuild_disk(0)      # rebuilt while disk 1 is still down
        array.rebuild_disk(1)
        assert array.failed_disks() == []
        assert array.scrub() == []
        for p, payload in snapshot.items():
            assert array.read_page(p) == payload

    def test_wrong_payload_size(self, array):
        with pytest.raises(ValueError):
            array.write_page(0, b"small")


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_raid6_random_writes_and_double_failures(data):
    """Property: after random writes, any two failed disks are fully
    recoverable."""
    array = make_raid6(data.draw(st.integers(2, 5), label="N"), 6)
    shadow = {}
    for _ in range(data.draw(st.integers(1, 15), label="writes")):
        page = data.draw(st.integers(0, array.num_data_pages - 1),
                         label="page")
        payload = data.draw(bytes_pages, label="payload")
        array.write_page(page, payload)
        shadow[page] = payload
    disks = data.draw(
        st.lists(st.integers(0, array.geometry.num_disks - 1), min_size=2,
                 max_size=2, unique=True), label="failures")
    for disk in disks:
        array.fail_disk(disk)
    for page, payload in shadow.items():
        assert array.read_page(page) == payload
    for disk in disks:
        array.rebuild_disk(disk)
    assert array.scrub() == []
