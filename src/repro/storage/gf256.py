"""GF(2^8) arithmetic for Reed-Solomon-style double parity (RAID-6).

The field is GF(256) with the usual AES/RAID polynomial
``x^8 + x^4 + x^3 + x^2 + 1`` (0x11D) and generator 2.  Log/antilog
tables make scalar multiplication a lookup; the page-wide helpers
(``page_mul``/``page_xor``/``q_parity``/``solve_two_erasures``)
delegate their byte crunching to the vectorized tier in
:mod:`repro.storage.kernels` while keeping their historical signatures
and semantics exactly (the kernel tiers are property-tested against
the pure-loop reference implementation).

Only what RAID-6 needs is implemented: add (XOR), multiply, divide,
power-of-generator weighting, and the 2×2 solve used to recover two
lost data pages.
"""

from __future__ import annotations

from functools import lru_cache

from . import kernels as _kernels

_POLY = 0x11D


def _build_tables() -> tuple:
    """Build the (EXP, LOG) lookup tables as immutable tuples.

    ``EXP`` is doubled to 512 entries so ``EXP[LOG[a] + LOG[b]]`` needs
    no ``% 255`` on the hot multiply path.
    """
    exp = [0] * 512
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value <<= 1
        if value & 0x100:
            value ^= _POLY
    for i in range(255, 512):
        exp[i] = exp[i - 255]
    return tuple(exp), tuple(log)


EXP, LOG = _build_tables()


def gf_mul(a: int, b: int) -> int:
    """Multiply two field elements."""
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def gf_div(a: int, b: int) -> int:
    """Divide ``a`` by ``b``.

    Raises:
        ZeroDivisionError: division by the zero element.
    """
    if b == 0:
        raise ZeroDivisionError("GF(256) division by zero")
    if a == 0:
        return 0
    return EXP[(LOG[a] - LOG[b]) % 255]


def gf_pow(base: int, exponent: int) -> int:
    """``base ** exponent`` in the field."""
    if base == 0:
        return 0 if exponent else 1
    return EXP[(LOG[base] * exponent) % 255]


GEN_POWERS = tuple(EXP[i] for i in range(255))
"""``GEN_POWERS[i] == gf_pow(2, i)`` for group indices ``0 <= i < 255``
(every practical parity-group size) — saves the log/mod round trip on
syndrome hot paths."""


def page_mul(coefficient: int, page: bytes) -> bytes:
    """Multiply every byte of ``page`` by ``coefficient``."""
    if coefficient == 0:
        return bytes(len(page))
    if coefficient == 1:
        return bytes(page)
    return _kernels.active.gf_scale(coefficient, page)


def page_xor(a: bytes, b: bytes) -> bytes:
    """Add two pages (XOR)."""
    return _kernels.active.xor(a, b)


def q_parity(pages: list) -> bytes:
    """The Q syndrome: ``Σ g^i · D_i`` with g = 2 and i the member index."""
    if not pages:
        raise ValueError("q_parity needs at least one page")
    return _kernels.active.gf_scale_accumulate(
        [(GEN_POWERS[index % 255], page) for index, page in enumerate(pages)],
        len(pages[0]))


@lru_cache(maxsize=None)
def _erasure_coefficients(index_a: int, index_b: int) -> tuple:
    """``(g^b, 1/(g^a ⊕ g^b))`` for the two-erasure solve, cached per
    index pair — degraded reads hit the same pair on every page of a
    rebuild scan."""
    g_a = gf_pow(2, index_a)
    g_b = gf_pow(2, index_b)
    return g_b, gf_div(1, g_a ^ g_b)


def solve_two_erasures(index_a: int, index_b: int, p_syndrome: bytes,
                       q_syndrome: bytes) -> tuple:
    """Recover two lost data pages from the P and Q syndromes.

    ``p_syndrome`` is the XOR of the surviving data pages with P
    (= D_a ⊕ D_b), ``q_syndrome`` the same for Q
    (= g^a·D_a ⊕ g^b·D_b).  Solving the 2×2 system byte-wise:

        D_a = (g^b · P* ⊕ Q*) / (g^a ⊕ g^b)
        D_b = P* ⊕ D_a

    Returns ``(D_a, D_b)``.
    """
    if index_a == index_b:
        raise ValueError("erasure indices must differ")
    g_b, inv = _erasure_coefficients(index_a, index_b)
    kernel = _kernels.active
    numerator = kernel.xor(kernel.gf_scale(g_b, p_syndrome), q_syndrome)
    d_a = kernel.gf_scale(inv, numerator)
    d_b = kernel.xor(p_syndrome, d_a)
    return d_a, d_b
