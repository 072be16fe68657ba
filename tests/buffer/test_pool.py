"""Tests for the buffer pool: hits/misses, eviction, STEAL/FORCE hooks."""

import pytest

from repro.buffer import BufferPool
from repro.errors import BufferFullError, PageNotPinnedError
from repro.storage.page import PAGE_SIZE, make_page


class Backing:
    """Fake backing store recording write-backs; pages in ``refuse``
    are left dirty, as a callee that skips a page leaves them."""

    def __init__(self):
        self.pages = {}
        self.writebacks = []
        self.refuse = set()

    def fetch(self, page_id):
        return self.pages.get(page_id, bytes(PAGE_SIZE))

    def writeback(self, page_id, payload, modifiers):
        self.pages[page_id] = payload
        self.writebacks.append((page_id, frozenset(modifiers)))


@pytest.fixture
def backing():
    return Backing()


def make_pool(backing, capacity=3, **kwargs):
    def writeback(entries):
        for page_id, payload, modifiers in entries:
            if page_id in backing.refuse:
                continue
            backing.writeback(page_id, payload, modifiers)
            pool.mark_clean(page_id)

    pool = BufferPool(capacity, backing.fetch, writeback, **kwargs)
    return pool


class TestBasics:
    def test_miss_then_hit(self, backing):
        backing.pages[7] = make_page(b"seven")
        pool = make_pool(backing)
        assert pool.get_page(7) == make_page(b"seven")
        assert pool.get_page(7) == make_page(b"seven")
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1
        assert pool.stats.hit_ratio == 0.5

    def test_put_marks_dirty_and_modifier(self, backing):
        pool = make_pool(backing)
        pool.put_page(1, make_page(b"x"), txn_id=42)
        assert pool.is_dirty(1)
        assert pool.modifiers_of(1) == {42}

    def test_put_without_txn(self, backing):
        pool = make_pool(backing)
        pool.put_page(1, make_page(b"x"))
        assert pool.is_dirty(1)
        assert pool.modifiers_of(1) == frozenset()

    def test_capacity_validation(self, backing):
        with pytest.raises(ValueError):
            make_pool(backing, capacity=0)

    def test_contains_and_resident(self, backing):
        pool = make_pool(backing)
        pool.get_page(3)
        pool.get_page(1)
        assert 3 in pool and 1 in pool and 2 not in pool
        assert pool.resident_pages() == [1, 3]


class TestEviction:
    def test_lru_victim(self, backing):
        pool = make_pool(backing, capacity=2)
        pool.get_page(1)
        pool.get_page(2)
        pool.get_page(1)       # 2 is now LRU
        pool.get_page(3)       # evicts 2
        assert 2 not in pool
        assert 1 in pool and 3 in pool

    def test_dirty_eviction_writes_back(self, backing):
        pool = make_pool(backing, capacity=1)
        pool.put_page(1, make_page(b"one"), txn_id=5)
        pool.get_page(2)
        assert backing.pages[1] == make_page(b"one")
        assert backing.writebacks == [(1, frozenset({5}))]
        assert pool.stats.dirty_evictions == 1
        assert pool.stats.steals == 1

    def test_clean_eviction_silent(self, backing):
        pool = make_pool(backing, capacity=1)
        pool.get_page(1)
        pool.get_page(2)
        assert backing.writebacks == []
        assert pool.stats.evictions == 1

    def test_pinned_never_evicted(self, backing):
        pool = make_pool(backing, capacity=2)
        pool.pin(1)
        pool.get_page(2)
        pool.get_page(3)   # must evict 2, not pinned 1
        assert 1 in pool

    def test_all_pinned_raises(self, backing):
        pool = make_pool(backing, capacity=1)
        pool.pin(1)
        with pytest.raises(BufferFullError):
            pool.get_page(2)

    def test_unpin_allows_eviction(self, backing):
        pool = make_pool(backing, capacity=1)
        pool.pin(1)
        pool.unpin(1)
        pool.get_page(2)
        assert 1 not in pool

    def test_unpin_unpinned_raises(self, backing):
        pool = make_pool(backing)
        pool.get_page(1)
        with pytest.raises(PageNotPinnedError):
            pool.unpin(1)

    def test_unknown_policy_rejected(self, backing):
        # LRU is the pool's own order, not a plug-in: no policy argument
        with pytest.raises(TypeError):
            make_pool(backing, policy="fifo")

    def test_victim_left_dirty_raises_and_stays_resident(self, backing):
        pool = make_pool(backing, capacity=1)
        pool.put_page(1, make_page(b"dirty"), txn_id=5)
        backing.refuse.add(1)
        with pytest.raises(BufferFullError):
            pool.get_page(2)
        assert 1 in pool and pool.is_dirty(1)
        assert pool.modifiers_of(1) == frozenset({5})
        assert pool.get_page(1) == make_page(b"dirty")
        assert 2 not in pool and backing.writebacks == []
        # once the callee takes it, the same eviction goes through
        backing.refuse.clear()
        pool.get_page(2)
        assert backing.writebacks == [(1, frozenset({5}))]


class TestStealDiscipline:
    def test_no_steal_protects_uncommitted(self, backing):
        pool = make_pool(backing, capacity=2, steal=False)
        pool.put_page(1, make_page(b"a"), txn_id=1)
        pool.put_page(2, make_page(b"b"), txn_id=1)
        with pytest.raises(BufferFullError):
            pool.get_page(3)
        assert backing.writebacks == []

    def test_no_steal_allows_committed_dirty_eviction(self, backing):
        pool = make_pool(backing, capacity=1, steal=False)
        pool.put_page(1, make_page(b"a"), txn_id=1)
        pool.clear_modifier(1)     # txn 1 committed
        pool.get_page(2)
        assert backing.pages[1] == make_page(b"a")

    def test_steal_allows_uncommitted_eviction(self, backing):
        pool = make_pool(backing, capacity=1, steal=True)
        pool.put_page(1, make_page(b"a"), txn_id=1)
        pool.get_page(2)
        assert backing.writebacks == [(1, frozenset({1}))]


class TestFlushing:
    def test_flush_page(self, backing):
        pool = make_pool(backing)
        pool.put_page(1, make_page(b"a"), txn_id=1)
        assert pool.flush_page(1)
        assert backing.pages[1] == make_page(b"a")
        assert not pool.is_dirty(1)
        assert not pool.flush_page(1)   # already clean

    def test_flush_page_reports_a_page_the_callee_skipped(self, backing):
        pool = make_pool(backing)
        pool.put_page(1, make_page(b"a"), txn_id=1)
        backing.refuse.add(1)
        assert not pool.flush_page(1)
        assert pool.is_dirty(1) and pool.modifiers_of(1) == frozenset({1})

    def test_flush_absent_page(self, backing):
        pool = make_pool(backing)
        assert not pool.flush_page(99)

    def test_flush_pages_of_txn_force_discipline(self, backing):
        pool = make_pool(backing)
        pool.put_page(1, make_page(b"a"), txn_id=1)
        pool.put_page(2, make_page(b"b"), txn_id=2)
        flushed = pool.flush_pages_of(1)
        assert flushed == [1]
        assert pool.is_dirty(2)

    def test_flush_all_dirty(self, backing):
        pool = make_pool(backing)
        pool.put_page(1, make_page(b"a"), txn_id=1)
        pool.put_page(2, make_page(b"b"), txn_id=2)
        pool.get_page(0)
        assert sorted(pool.flush_all_dirty()) == [1, 2]
        assert pool.dirty_pages() == []


class TestInvalidation:
    def test_invalidate_drops_without_writeback(self, backing):
        backing.pages[1] = make_page(b"disk")
        pool = make_pool(backing)
        pool.put_page(1, make_page(b"mem"), txn_id=1)
        pool.invalidate(1)
        assert backing.pages[1] == make_page(b"disk")
        assert 1 not in pool
        assert pool.get_page(1) == make_page(b"disk")

    def test_invalidate_absent_is_noop(self, backing):
        pool = make_pool(backing)
        pool.invalidate(5)

    def test_invalidate_all_simulates_crash(self, backing):
        pool = make_pool(backing)
        pool.put_page(1, make_page(b"a"), txn_id=1)
        pool.get_page(2)
        pool.invalidate_all()
        assert pool.resident_pages() == []
        assert backing.writebacks == []
        assert pool.stats.references == 0

    def test_clear_modifier_keeps_dirty(self, backing):
        pool = make_pool(backing)
        pool.put_page(1, make_page(b"a"), txn_id=1)
        pool.clear_modifier(1)
        assert pool.is_dirty(1)
        assert pool.modifiers_of(1) == frozenset()
