"""Factories for parity-striped arrays (Gray, Horst & Walker).

Paper Figure 2 (single parity) and Figure 5 (twin parity).  Parity
striping keeps data *sequential on each disk* — only the parity areas
are striped — which Gray et al. argue suits OLTP better than data
striping: a small request engages one arm, and sequential scans keep
their locality.  In this library the difference is captured by the
``SEQUENTIAL`` placement of :class:`~repro.storage.geometry.Geometry`;
the redundancy mechanics are shared with the RAID-5 arrays.
"""

from __future__ import annotations

from .array import SingleParityArray
from .geometry import parity_striping_geometry
from .iostats import IOStats
from .twin_array import TwinParityArray


def make_parity_striped(group_size: int, num_groups: int,
                        stats: IOStats | None = None, tracer=None,
                        metrics=None) -> SingleParityArray:
    """A parity-striped array (Figure 2): sequential data placement,
    one parity page per group."""
    return SingleParityArray(
        parity_striping_geometry(group_size, num_groups, twin=False),
        stats=stats, tracer=tracer, metrics=metrics)


def make_twin_parity_striped(group_size: int, num_groups: int,
                             stats: IOStats | None = None, tracer=None,
                             metrics=None) -> TwinParityArray:
    """Parity striping with twin parity pages for RDA recovery
    (Figure 5)."""
    return TwinParityArray(
        parity_striping_geometry(group_size, num_groups, twin=True),
        stats=stats, tracer=tracer, metrics=metrics)
