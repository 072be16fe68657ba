"""Storage substrate: simulated disks and redundant disk arrays.

Public surface:

* :data:`~repro.storage.page.PAGE_SIZE`, page/XOR helpers and parity
  headers (:mod:`repro.storage.page`);
* :class:`~repro.storage.disk.SimulatedDisk` with fail-stop injection;
* geometries for RAID-5 rotated parity and Gray parity striping, each in
  single- and twin-parity form (:mod:`repro.storage.geometry`);
* :class:`~repro.storage.array.SingleParityArray` and
  :class:`~repro.storage.twin_array.TwinParityArray` implementing the
  small-write protocol, degraded reads and rebuild;
* the :class:`~repro.storage.backend.StorageBackend` protocol and the
  table of built-in arrays the database engine constructs its array
  from by name (:func:`~repro.storage.backend.create_backend`);
* :class:`~repro.storage.iostats.IOStats` page-transfer accounting;
* the page kernels — one production tier plus the reference oracle
  (:mod:`repro.storage.kernels`: :func:`~repro.storage.kernels.active_tier`,
  :func:`~repro.storage.kernels.available_tiers`,
  :func:`~repro.storage.kernels.set_kernel`,
  :func:`~repro.storage.kernels.use_kernel`).
"""

from .array import DiskArray, SingleParityArray
from .backend import StorageBackend, TwinBackend, backend_names, create_backend
from .disk import SimulatedDisk
from .geometry import (Geometry, PhysAddr, Placement, parity_striping_geometry,
                       raid5_geometry)
from .kernels import active_tier, available_tiers, set_kernel, use_kernel
from .iostats import IOStats, TransferCounts
from .page import (HEADER_SIZE, NO_PAGE, NO_TXN, PAGE_SIZE, ZERO_PAGE,
                   ParityHeader, TwinState, compute_parity, header_size,
                   make_page, pack_header, reconstruct_before_image,
                   unpack_header, xor_pages)
from .parity_striping import make_parity_striped, make_twin_parity_striped
from .raid5 import make_raid5, make_twin_raid5
from .raid6 import Raid6Array, make_raid6
from .timing import (ArrayTimer, DiskTimer, DiskTimingSpec,
                     time_mixed_workload, time_read, time_sequential_scan,
                     time_small_write)
from .twin_array import (DirtyGroupInfo, RebuildReport, TwinParityArray,
                         TwinUpdate, select_current_twin)

__all__ = [
    "active_tier",
    "available_tiers",
    "set_kernel",
    "use_kernel",
    "DiskArray",
    "SingleParityArray",
    "StorageBackend",
    "TwinBackend",
    "backend_names",
    "create_backend",
    "SimulatedDisk",
    "Geometry",
    "PhysAddr",
    "Placement",
    "parity_striping_geometry",
    "raid5_geometry",
    "IOStats",
    "TransferCounts",
    "HEADER_SIZE",
    "NO_PAGE",
    "NO_TXN",
    "PAGE_SIZE",
    "ZERO_PAGE",
    "ParityHeader",
    "TwinState",
    "compute_parity",
    "header_size",
    "make_page",
    "pack_header",
    "reconstruct_before_image",
    "unpack_header",
    "xor_pages",
    "make_parity_striped",
    "make_twin_parity_striped",
    "make_raid5",
    "make_twin_raid5",
    "Raid6Array",
    "make_raid6",
    "ArrayTimer",
    "DiskTimer",
    "DiskTimingSpec",
    "time_mixed_workload",
    "time_read",
    "time_sequential_scan",
    "time_small_write",
    "DirtyGroupInfo",
    "RebuildReport",
    "TwinParityArray",
    "TwinUpdate",
    "select_current_twin",
]
