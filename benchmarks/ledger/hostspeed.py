"""Host-speed probe: take the container's speed swings out of the timings.

Identical runs on the shared 2-core container spread 10-15 % in wall
*and* CPU time: the interpreter itself runs faster or slower for
seconds at a time.  In-run medians cannot remove a swing that lasts a
whole run, so every timed interval is bracketed by a fixed interpreter
workout — calls, dict and attribute traffic, small allocations, page
slicing: the engine's own instruction mix — and scaled by how long the
workout took against ``NOMINAL_S``.  A reported time is therefore "what
this would have taken on a host that runs the probe in ``NOMINAL_S``";
the scale cancels between two commits measured on the same machine.
Over ten runs of ``force_update`` this cut the spread of ``txns_per_s``
from 5-11 % to under 2 %.
"""

from __future__ import annotations

from time import perf_counter

NOMINAL_S = 0.00115
"""What one probe takes on the reference container when it is quiet."""

_PAGE = bytes(512)


class _Cell:
    __slots__ = ("table", "value")

    def __init__(self, table, value) -> None:
        self.table = table
        self.value = value

    def get(self, key):
        return self.table.get(key)


def probe() -> float:
    """Seconds the fixed workout takes right now."""
    started = perf_counter()
    table: dict = {}
    root = _Cell(table, 0)
    total = 0
    for i in range(1500):
        key = (i & 31, i & 7)
        table[key] = _Cell(key, i)
        total += len(_PAGE[:i & 255]) + root.get(key).value
        pattern = b"p%dv%d." % (i, total & 1023)
        (pattern * 40)[:512]
    return perf_counter() - started


def scale(*probes: float) -> float:
    """Factor that turns a wall time measured next to ``probes`` into
    its nominal-host equivalent (below 1 when the host ran slow)."""
    return NOMINAL_S * len(probes) / sum(probes)
