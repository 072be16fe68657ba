"""Vectorized page kernels: the byte-level substrate of every parity op.

Everything the paper costs in page transfers — small-write parity
updates, the twin-parity undo identity ``D_old = P_w ⊕ P_c ⊕ D_new``,
crash/media rebuilds, RAID-6 P+Q syndromes — bottoms out in two
primitives over :data:`~repro.storage.page.PAGE_SIZE`-byte payloads:

* whole-page XOR (GF(2) addition), and
* GF(256) scalar-times-page multiplication (Reed-Solomon weighting).

This module provides both in two interchangeable **tiers**:

``stdlib``
    The production tier, and the only one the engine runs on.
    Whole-page XOR runs as one arbitrary-precision integer XOR
    (``int.from_bytes(a) ^ int.from_bytes(b)``); GF(256)
    scalar-times-page runs as ``page.translate(table)`` against one of
    256 precomputed translation tables.  Both execute in C inside the
    interpreter, tens of times faster than a Python byte loop.

``reference``
    The original pure-Python byte loops, kept as the executable
    specification.  The stdlib tier is property-tested against it
    byte-for-byte (``tests/storage/test_kernels.py``).

``stdlib`` is active from import; :func:`use_kernel` (or
:func:`set_kernel`) swaps the active tier for tests and benchmarks —
``use_kernel("reference")`` is how a test runs the engine on the
oracle, and the ledger swaps in a counting stand-in the same way.
The active tier is the module attribute :data:`active`, rebound by
every swap, so a caller reads it at call time —
``kernels.active.xor_accumulate(...)``, one frame, the operation's own
— and never keeps it: a tier held from an earlier call would miss the
next swap.  :func:`get_kernel` returns the same class, for callers
outside the package.

Each tier exposes the same six static operations; callers validate
page lengths (hoisted out of the hot loops) and the kernels assume
well-formed input:

* ``xor(a, b)`` — two-operand XOR (truncates to the shorter operand,
  matching the historical ``zip`` semantics of ``gf256.page_xor``);
* ``xor_blocks(a, b)`` — equal-length multi-page blobs XORed in one
  call; accepts any buffer type, always returns ``bytes``.  Nothing
  under ``src/`` calls it any more: the performance ledger
  (``benchmarks/ledger/spans.py``), which wraps all six operations by
  name, is its remaining caller;
* ``xor_accumulate(pages, size)`` — one k-page XOR reduction (the
  small-write, rebuild and degraded-read hot path); zero pages → the
  zero page;
* ``xor_inplace(accumulator, page)`` — XOR into a ``bytearray``;
* ``gf_scale(coefficient, page)`` — GF(256) scalar × page;
* ``gf_scale_accumulate(pairs, size)`` — ``Σ c_i · D_i`` in one call
  (the Q-syndrome / two-erasure hot path).
"""

from __future__ import annotations

from contextlib import contextmanager


# -- GF(256) product tables ------------------------------------------------------------
#
# Built locally (mirroring repro.storage.gf256, which delegates its page
# operations here and therefore cannot be imported at module load).
# The field is GF(256) mod x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator 2.

def _build_mul_tables() -> tuple:
    """All 256 GF(256) scalar-multiplication tables.

    ``tables[c][x] == c · x`` in the field; each table is a 256-byte
    ``bytes`` object usable directly with ``bytes.translate``.
    """
    poly = 0x11D
    exp = [0] * 512
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value <<= 1
        if value & 0x100:
            value ^= poly
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def mul(a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return exp[log[a] + log[b]]

    return tuple(bytes(mul(c, x) for x in range(256)) for c in range(256))


MUL_TABLES = _build_mul_tables()
"""``MUL_TABLES[c]`` is the ``bytes.translate`` table for GF(256) ·c."""

_EXPANDED = MUL_TABLES[2]  # sanity anchor: 2·0x80 must reduce mod the polynomial
assert _EXPANDED[0x80] == 0x1D, "GF(256) table built with the wrong polynomial"
del _EXPANDED


# -- reference tier --------------------------------------------------------------------


class ReferenceKernel:
    """The original pure-Python byte loops — the executable spec."""

    name = "reference"

    @staticmethod
    def xor(a: bytes, b: bytes) -> bytes:
        return bytes(x ^ y for x, y in zip(a, b))

    @staticmethod
    def xor_blocks(a, b) -> bytes:
        # remaining caller: benchmarks/ledger/spans.py (see module doc)
        return bytes(x ^ y for x, y in zip(a, b))

    @staticmethod
    def xor_accumulate(pages, size: int) -> bytes:
        out = bytearray(size)
        for page in pages:
            for i, byte in enumerate(page):
                out[i] ^= byte
        return bytes(out)

    @staticmethod
    def xor_inplace(accumulator: bytearray, page: bytes) -> None:
        for i, byte in enumerate(page):
            accumulator[i] ^= byte

    @staticmethod
    def gf_scale(coefficient: int, page: bytes) -> bytes:
        if coefficient == 0:
            return bytes(len(page))
        if coefficient == 1:
            return bytes(page)
        table = MUL_TABLES[coefficient]
        return bytes(table[b] for b in page)

    @staticmethod
    def gf_scale_accumulate(pairs, size: int) -> bytes:
        out = bytes(size)
        for coefficient, page in pairs:
            out = ReferenceKernel.xor(out, ReferenceKernel.gf_scale(coefficient, page))
        return out


# -- stdlib tier -----------------------------------------------------------------------


class StdlibKernel:
    """C-speed primitives from the standard library alone.

    Whole-page XOR as one big-int XOR and GF(256) scaling as
    ``bytes.translate`` both run inside the interpreter's C core — no
    per-byte Python bytecode.
    """

    name = "stdlib"

    @staticmethod
    def xor(a: bytes, b: bytes) -> bytes:
        n = len(a)
        if len(b) != n:
            n = min(n, len(b))
            a, b = a[:n], b[:n]
        return (int.from_bytes(a, "little")
                ^ int.from_bytes(b, "little")).to_bytes(n, "little")

    @staticmethod
    def xor_blocks(a, b) -> bytes:
        # remaining caller: benchmarks/ledger/spans.py (see module doc)
        return (int.from_bytes(a, "little")
                ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")

    @staticmethod
    def xor_accumulate(pages, size: int) -> bytes:
        acc = 0
        for page in pages:
            acc ^= int.from_bytes(page, "little")
        return acc.to_bytes(size, "little")

    @staticmethod
    def xor_inplace(accumulator: bytearray, page: bytes) -> None:
        accumulator[:] = (
            int.from_bytes(accumulator, "little") ^ int.from_bytes(page, "little")
        ).to_bytes(len(accumulator), "little")

    @staticmethod
    def gf_scale(coefficient: int, page: bytes) -> bytes:
        if coefficient == 0:
            return bytes(len(page))
        if coefficient == 1:
            return bytes(page)
        return page.translate(MUL_TABLES[coefficient])

    @staticmethod
    def gf_scale_accumulate(pairs, size: int) -> bytes:
        acc = 0
        for coefficient, page in pairs:
            if coefficient == 0:
                continue
            if coefficient == 1:
                acc ^= int.from_bytes(page, "little")
            else:
                acc ^= int.from_bytes(page.translate(MUL_TABLES[coefficient]),
                                      "little")
        return acc.to_bytes(size, "little")


# -- registry and selection ------------------------------------------------------------

KERNELS = {
    StdlibKernel.name: StdlibKernel,
    ReferenceKernel.name: ReferenceKernel,
}

active = StdlibKernel
"""The active tier; read it at call time (see the module doc)."""


def available_tiers() -> tuple:
    """The tier names, production tier first."""
    return (StdlibKernel.name, ReferenceKernel.name)


def get_kernel():
    """The active kernel tier (class with the six static operations)."""
    return active


def active_tier() -> str:
    """Name of the active tier."""
    return active.name


def set_kernel(name: str) -> str:
    """Activate a registered tier by name; returns the previously
    active name.  Tests and benchmarks prefer :func:`use_kernel`."""
    global active
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernel tier {name!r}; available: {available_tiers()}")
    previous = active.name
    active = KERNELS[name]
    return previous


@contextmanager
def use_kernel(name: str):
    """Context manager pinning the active tier, restoring it on exit."""
    previous = set_kernel(name)
    try:
        yield KERNELS[name]
    finally:
        set_kernel(previous)
