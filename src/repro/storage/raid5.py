"""Factories for RAID-5 (data-striped, rotated-parity) arrays.

Paper Figure 1 (single parity) and Figure 4 (twin parity).  Data
striping interleaves consecutive logical pages round-robin across the
disks, so large accesses engage every arm; the rotated parity avoids the
dedicated-parity-disk bottleneck of RAID-4.

Parity arithmetic in both organizations runs on the page kernels of
:mod:`repro.storage.kernels` (the stdlib C-speed tier).
"""

from __future__ import annotations

from .array import SingleParityArray
from .geometry import raid5_geometry
from .iostats import IOStats
from .twin_array import TwinParityArray


def make_raid5(group_size: int, num_groups: int,
               stats: IOStats | None = None, tracer=None,
               metrics=None) -> SingleParityArray:
    """A classical RAID-5 array: N data disks' worth of pages + 1 parity
    page per group, rotated (Figure 1)."""
    return SingleParityArray(raid5_geometry(group_size, num_groups, twin=False),
                             stats=stats, tracer=tracer, metrics=metrics)


def make_twin_raid5(group_size: int, num_groups: int,
                    stats: IOStats | None = None, tracer=None,
                    metrics=None) -> TwinParityArray:
    """RAID-5 with the twin-page parity scheme for RDA recovery
    (Figure 4): two rotated parity pages per group on distinct disks."""
    return TwinParityArray(raid5_geometry(group_size, num_groups, twin=True),
                           stats=stats, tracer=tracer, metrics=metrics)
