"""Unit tests for page primitives, XOR algebra, and parity headers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.page import (HEADER_SIZE, PAGE_SIZE, ZERO_PAGE, NO_PAGE,
                                NO_TXN, ParityHeader, TwinState, compute_parity,
                                header_size, make_page, pack_header,
                                reconstruct_before_image, unpack_header,
                                xor_into, xor_pages)

pages = st.binary(min_size=PAGE_SIZE, max_size=PAGE_SIZE)


class TestMakePage:
    def test_zero_fill(self):
        assert make_page() == ZERO_PAGE
        assert len(make_page()) == PAGE_SIZE

    def test_bytes_fill_repeats(self):
        page = make_page(b"ab")
        assert page[:4] == b"abab"
        assert len(page) == PAGE_SIZE

    def test_str_fill(self):
        assert make_page("xy")[:2] == b"xy"

    def test_int_fill(self):
        assert make_page(7) == bytes([7]) * PAGE_SIZE

    def test_int_fill_out_of_range(self):
        with pytest.raises(ValueError):
            make_page(300)

    def test_fill_longer_than_page_truncates(self):
        page = make_page(b"z" * (PAGE_SIZE + 100))
        assert len(page) == PAGE_SIZE


class TestXor:
    def test_identity(self):
        assert xor_pages() == ZERO_PAGE

    def test_self_inverse(self):
        page = make_page(b"data")
        assert xor_pages(page, page) == ZERO_PAGE

    def test_zero_is_neutral(self):
        page = make_page(b"data")
        assert xor_pages(page, ZERO_PAGE) == page

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            xor_pages(b"short")

    def test_xor_into_matches_xor_pages(self):
        a, b = make_page(1), make_page(2)
        acc = bytearray(a)
        xor_into(acc, b)
        assert bytes(acc) == xor_pages(a, b)

    def test_xor_into_size_check(self):
        with pytest.raises(ValueError):
            xor_into(bytearray(3), make_page())

    @given(pages, pages, pages)
    def test_associative_commutative(self, a, b, c):
        assert xor_pages(a, xor_pages(b, c)) == xor_pages(xor_pages(a, b), c)
        assert xor_pages(a, b) == xor_pages(b, a)

    @given(st.lists(pages, min_size=1, max_size=6))
    def test_parity_reconstructs_any_member(self, data):
        parity = compute_parity(data)
        for i, member in enumerate(data):
            others = [p for j, p in enumerate(data) if j != i]
            assert xor_pages(parity, *others) == member


class TestBeforeImageIdentity:
    """The core undo identity of the paper: D_old = (P ⊕ P') ⊕ D_new."""

    @given(st.lists(pages, min_size=2, max_size=6), st.data())
    def test_single_update(self, group, data):
        committed = compute_parity(group)
        index = data.draw(st.integers(0, len(group) - 1))
        new_page = data.draw(pages)
        working = xor_pages(committed, group[index], new_page)
        recovered = reconstruct_before_image(working, committed, new_page)
        assert recovered == group[index]

    @given(st.lists(pages, min_size=2, max_size=4),
           st.lists(pages, min_size=1, max_size=5), st.data())
    def test_repeated_resteal_same_page(self, group, versions, data):
        """Re-stealing the same page keeps the identity valid (paper
        Figure 3's self-loop on the dirty state)."""
        committed = compute_parity(group)
        index = data.draw(st.integers(0, len(group) - 1))
        working = committed
        current = group[index]
        for version in versions:
            working = xor_pages(working, current, version)
            current = version
        assert reconstruct_before_image(working, committed, current) == group[index]

    @given(st.lists(pages, min_size=3, max_size=5), pages, pages, st.data())
    def test_survives_logged_write_to_both_twins(self, group, new_i, new_j, data):
        """A logged write applied to BOTH twins preserves the identity
        for the unlogged dirty page (paper Figure 6 discussion)."""
        committed = compute_parity(group)
        i = data.draw(st.integers(0, len(group) - 1))
        j = data.draw(st.integers(0, len(group) - 1).filter(lambda x: x != i))
        working = xor_pages(committed, group[i], new_i)      # unlogged steal of i
        delta_j = xor_pages(group[j], new_j)                 # logged write of j
        working = xor_pages(working, delta_j)
        committed = xor_pages(committed, delta_j)
        assert reconstruct_before_image(working, committed, new_i) == group[i]


class TestParityHeader:
    def test_defaults(self):
        header = ParityHeader()
        assert header.timestamp == 0
        assert header.txn_id == NO_TXN
        assert header.dirty_page_index == NO_PAGE
        assert header.state is TwinState.OBSOLETE

    def test_with_replaces_fields(self):
        header = ParityHeader().with_(timestamp=9, state=TwinState.WORKING)
        assert header.timestamp == 9
        assert header.state is TwinState.WORKING
        assert header.txn_id == NO_TXN

    def test_pack_size(self):
        assert len(pack_header(ParityHeader())) == HEADER_SIZE

    @given(st.integers(0, 2**40), st.integers(-1, 2**31), st.integers(-1, 200),
           st.sampled_from(list(TwinState)))
    def test_roundtrip(self, ts, txn, idx, state):
        header = ParityHeader(ts, txn, idx, state)
        assert unpack_header(pack_header(header)) == header

    def test_unpack_rejects_short_blob(self):
        with pytest.raises(ValueError):
            unpack_header(b"\x00" * 4)

    @given(st.lists(st.integers(0, 2**62), max_size=12))
    def test_roundtrip_with_page_lsns(self, lsns):
        """The packed size is a function of N: the fixed part, then
        eight bytes a page LSN."""
        header = ParityHeader(7, 3, 1, TwinState.WORKING, tuple(lsns))
        blob = pack_header(header)
        assert len(blob) == header_size(len(lsns)) \
            == HEADER_SIZE + 8 * len(lsns)
        assert unpack_header(blob) == header

    def test_default_header_knows_no_page_lsn(self):
        assert ParityHeader().page_lsns == ()
        assert ParityHeader().with_(state=TwinState.COMMITTED).page_lsns == ()

    def test_unpack_rejects_a_blob_short_of_its_lsn_count(self):
        blob = pack_header(ParityHeader(page_lsns=(4, 5, 6)))
        for cut in (blob[:-1], blob[:-8], blob[:HEADER_SIZE], blob + b"\x00"):
            with pytest.raises(ValueError):
                unpack_header(cut)

    def test_unpack_rejects_bad_magic(self):
        blob = bytearray(pack_header(ParityHeader()))
        blob[-1] ^= 0xFF
        with pytest.raises(ValueError):
            unpack_header(bytes(blob))
