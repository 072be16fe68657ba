"""Transaction scripts: the ledger's inputs, a pure function of the seed.

Every script is drawn from ``random.Random(seed)`` and nothing else —
no buffer feedback, no engine state, no clock — so two commits are
always measured on identical inputs.  Locality comes from the Zipf skew
and the buffer size the workload configures.

Scripts come in blocks of ``BLOCK`` (one driver segment).  The draws
are stratified: every block holds the same number of update scripts
and of scripted aborts (to within one, fractions carried over), at
seeded positions.  Which pages, and which accesses update, stay free
draws.  Segments therefore carry near-equal work, and a second seed
gives a second stream of the same mix instead of a slightly different
mix — the counts per commit spread 3-5x less across seeds.

A script's accesses are sorted by page, and a page a script updates is
updated at every access to it.  Locks are therefore always requested in
one global order and never upgraded, so no interleaving of scripts can
deadlock: the benchmark's contract asks for workloads on which no
operation fails, and a forced abort is a failed transaction.  The abort
path is still exercised by the scripted aborts (``abort_probability``).
"""

from __future__ import annotations

import hashlib
import random
import struct
from bisect import bisect_left
from dataclasses import dataclass

BLOCK = 125
"""Scripts per block: one driver segment."""

PIN_AT = 5 * BLOCK
"""Scripts into a stream (warm-up plus the first timed segment, which
every run draws) at which its digest is pinned."""

PAGE_SIZE = 512
"""The engine's page size (``repro.storage.page.PAGE_SIZE``); restated
so the generator imports nothing from the program under test."""


@dataclass(frozen=True)
class LoadSpec:
    """The paper's load knobs (Section 5) plus a Zipf exponent."""

    pages_per_txn: int              # s
    update_txn_fraction: float      # f_u
    update_probability: float       # p_u
    abort_probability: float        # p_b
    skew: float = 0.0               # Zipf exponent; 0 = uniform


@dataclass(frozen=True)
class Script:
    """One planned transaction."""

    seq: int            # position in the stream; names the payload version
    pages: tuple        # page ids, ascending
    updates: tuple      # per access: write (True) or read (False)
    wants_abort: bool   # the p_b draw: the driver aborts it at the end


class ScriptStream:
    """An endless, digest-tracked stream of :class:`Script` objects."""

    def __init__(self, load: LoadSpec, num_pages: int, seed: int) -> None:
        self.load = load
        self.num_pages = num_pages
        self._rng = random.Random(seed)
        self._next_seq = 0
        self._credit: dict = {}     # stratum -> fraction carried over
        self.pinned_digest = None   # digest of the first PIN_AT scripts
        self._sha = hashlib.sha256(
            repr((load, num_pages)).encode("ascii"))
        self._cdf = None
        if load.skew > 0.0:
            weights = [1.0 / (rank + 1) ** load.skew
                       for rank in range(num_pages)]
            total = sum(weights)
            running, cdf = 0.0, []
            for weight in weights:
                running += weight / total
                cdf.append(running)
            self._cdf = cdf

    def _page(self) -> int:
        if self._cdf is None:
            return self._rng.randrange(self.num_pages)
        return min(self.num_pages - 1,
                   bisect_left(self._cdf, self._rng.random()))

    def _stratum(self, name: str, share: float, population: int) -> set:
        """``share`` of ``population`` positions, the fraction carried
        into the next block."""
        credit = self._credit.get(name, 0.0) + share * population
        count = int(credit)
        self._credit[name] = credit - count
        return set(self._rng.sample(range(population), count))

    def next_block(self) -> list:
        """Draw the next ``BLOCK`` scripts."""
        load, rng = self.load, self._rng
        updating = self._stratum("update", load.update_txn_fraction, BLOCK)
        aborting = self._stratum("abort", load.abort_probability,
                                 len(updating))
        aborting = {position for rank, position in enumerate(sorted(updating))
                    if rank in aborting}
        out = []
        for position in range(BLOCK):
            is_update = position in updating
            drawn = {}
            for _ in range(load.pages_per_txn):
                page = self._page()
                update = is_update and rng.random() < load.update_probability
                drawn.setdefault(page, []).append(update)
            pages, updates = [], []
            for page in sorted(drawn):
                flags = drawn[page]
                pages.extend([page] * len(flags))
                updates.extend([any(flags)] * len(flags))
            script = Script(self._next_seq, tuple(pages), tuple(updates),
                            position in aborting)
            self._next_seq += 1
            self._sha.update(struct.pack(
                f"<I{len(pages)}I{len(pages)}??", script.seq, *pages,
                *updates, script.wants_abort))
            out.append(script)
        if self._next_seq == PIN_AT:
            self.pinned_digest = self._sha.hexdigest()
        return out

    @property
    def drawn(self) -> int:
        """Scripts drawn so far."""
        return self._next_seq

    def digest(self) -> str:
        """sha256 over the load spec and every script drawn so far."""
        return self._sha.hexdigest()


def page_payload(page: int, version: int) -> bytes:
    """Full-page payload: a pure function of page and version."""
    pattern = b"p%dv%d." % (page, version)
    return (pattern * (PAGE_SIZE // len(pattern) + 1))[:PAGE_SIZE]


def record_payload(page: int, version: int) -> bytes:
    """Record payload: a pure function of page and version."""
    return b"p%dv%d" % (page, version)


def version_of(script: Script, position: int) -> int:
    """The payload version the ``position``-th access of a script
    writes; version 0 is the loaded state."""
    return script.seq * 64 + position + 1
