"""The pool's replacement order: LRU, kept by the pool itself.

The victim is the least recently used frame that is unpinned, stealable
and admitted by the write-behind gate.  A few named cases, then a
seeded random walk over the whole pool interface compared, step by
step, against a reference model small enough to check by eye.
"""

import random
from collections import Counter, defaultdict

import pytest

from repro.errors import BufferFullError
from repro.storage.page import make_page

from .test_pool import Backing, make_pool


class TestLRU:
    def test_victim_is_least_recent(self):
        pool = make_pool(Backing(), capacity=3)
        for page in (0, 1, 2):
            pool.get_page(page)
        pool.get_page(0)
        pool.get_page(3)
        assert pool.resident_pages() == [0, 2, 3]

    def test_restricted_candidates(self):
        pool = make_pool(Backing(), capacity=3)
        pool.pin(0)
        pool.pin(1)
        pool.get_page(2)
        pool.get_page(3)            # 0 and 1 are older, but pinned
        assert pool.resident_pages() == [0, 1, 3]

    def test_put_page_miss_enters_the_order(self):
        backing = Backing()
        pool = make_pool(backing, capacity=2)
        pool.put_page(0, make_page(b"never fetched"))
        pool.get_page(1)
        pool.get_page(2)            # page 0 is the oldest, loaded or not
        assert pool.resident_pages() == [1, 2]
        assert backing.pages[0] == make_page(b"never fetched")

    def test_forget(self):
        pool = make_pool(Backing(), capacity=2)
        pool.get_page(0)
        pool.get_page(1)
        pool.invalidate(0)
        pool.get_page(2)            # takes the freed frame: no eviction
        assert pool.resident_pages() == [1, 2]
        assert pool.stats.evictions == 0
        pool.get_page(0)            # back as the newest; 1 is the victim
        assert pool.resident_pages() == [0, 2]

    def test_empty_raises(self):
        pool = make_pool(Backing(), capacity=2)
        pool.pin(0)
        pool.pin(1)
        with pytest.raises(BufferFullError):
            pool.get_page(2)


class Model:
    """Reference: a recency list and the three evictability predicates."""

    def __init__(self, capacity, steal, refused):
        self.capacity, self.steal, self.refused = capacity, steal, refused
        self.order = []             # resident pages, least recent first
        self.dirty = set()
        self.pins = Counter()
        self.modifiers = defaultdict(set)

    def evictable(self, page):
        dirty = page in self.dirty
        return not (self.pins[page]
                    or (dirty and not self.steal and self.modifiers[page])
                    or (dirty and page in self.refused))

    def reference(self, page):
        if page in self.order:
            self.order.remove(page)
        elif len(self.order) == self.capacity:
            victim = next(filter(self.evictable, self.order), None)
            if victim is None:
                raise BufferFullError
            self.drop(victim)
        self.order.append(page)

    def drop(self, page):
        self.order.remove(page)
        self.clean(page)
        del self.pins[page]

    def clean(self, page):
        self.dirty.discard(page)
        self.modifiers.pop(page, None)

    def apply(self, op, page, txn):
        if op in ("get", "put", "put_committed", "pin"):
            self.reference(page)
            if op == "pin":
                self.pins[page] += 1
            elif op != "get":
                self.dirty.add(page)
                if op == "put":
                    self.modifiers[page].add(txn)
        elif op == "unpin":
            self.pins[page] -= 1
        elif op == "flush_page":
            if page in self.dirty and page not in self.refused:
                self.clean(page)
        elif op == "invalidate":
            if page in self.order:
                self.drop(page)
        else:
            for modifiers in self.modifiers.values():
                modifiers.discard(txn)


def apply_to_pool(pool, op, page, txn):
    if op == "get":
        pool.get_page(page)
    elif op == "put":
        pool.put_page(page, make_page(b"uncommitted"), txn)
    elif op == "put_committed":
        pool.put_page(page, make_page(b"committed"))
    elif op == "clear_modifier":
        pool.clear_modifier(txn)
    else:                           # pin, unpin, flush_page, invalidate
        getattr(pool, op)(page)


def raised(call, *args):
    try:
        call(*args)
    except BufferFullError:
        return BufferFullError
    return None


OPS = ["get", "get", "put", "put", "put_committed", "pin", "unpin",
       "flush_page", "invalidate", "clear_modifier"]


@pytest.mark.parametrize("steal", [True, False])
@pytest.mark.parametrize("refused", [frozenset(), frozenset({1, 4, 7, 10})])
@pytest.mark.parametrize("seed", range(6))
def test_pool_matches_the_lru_model(seed, steal, refused):
    rng = random.Random(seed)
    pool = make_pool(Backing(), capacity=4, steal=steal)
    if refused:
        pool.set_writeback_filter(lambda page, frame: page not in refused)
    model = Model(4, steal, refused)
    full = 0
    for _ in range(800):
        op, page, txn = rng.choice(OPS), rng.randrange(12), rng.randrange(1, 4)
        if op == "unpin":
            pinned = [p for p in model.order if model.pins[p]]
            if not pinned:
                continue
            page = rng.choice(pinned)
        if op == "invalidate" and model.pins[page]:
            continue                # the engine never drops a pinned page
        outcome = raised(apply_to_pool, pool, op, page, txn)
        assert outcome is raised(model.apply, op, page, txn)
        full += outcome is BufferFullError
        # same residency after every step means same victim at every
        # eviction; same dirt and modifiers mean the same write-backs
        assert pool.resident_pages() == sorted(model.order)
        assert pool.dirty_pages() == sorted(model.dirty)
        for page in model.order:
            assert pool.modifiers_of(page) == model.modifiers[page]
    assert pool.stats.evictions > 50
    if not steal or refused:
        assert full                 # the walk reached a full buffer
