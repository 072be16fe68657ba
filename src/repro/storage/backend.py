"""The storage-backend protocol and the table of built-in arrays.

Every array the engine can run on — twin-parity (RDA), single-parity
(classical RAID-5), the parity-striped placements of Gray et al., and
the double-parity RAID-6 tier — presents the same structural surface to
the database: read (with degraded reconstruction), write, full-stripe
write, fail/rebuild/scrub, and parity repair.  :class:`StorageBackend`
states that surface as a :class:`typing.Protocol`, so conformance is
checked *structurally* (mypy verifies every built-in array satisfies
it; no inheritance required), and :func:`create_backend` constructs one
from a :class:`~repro.db.config.DBConfig` by its name in
:data:`BACKENDS`.

Twin-specific operations (``read_twin``/``write_twin``/``small_write``
and the Dirty_Set-steered rebuild) form the narrower
:class:`TwinBackend` protocol; a backend advertises that capability via
``supports_twins`` — the capability flag :mod:`repro.db.recovery` and
the policy layer branch on instead of ``isinstance`` checks.

Adding a backend: implement the protocol (usually by subclassing
:class:`~repro.storage.array.DiskArray`), write its factory beside
:func:`~repro.storage.raid5.make_raid5`, and add one :data:`BACKENDS`
row; ``DBConfig(backend=...)`` and ``repro simulate --backend ...``
then reach it with no engine changes (``docs/architecture.md``).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Protocol,
                    Sequence, Tuple, runtime_checkable)

from ..errors import ModelError
from .array import SingleParityArray
from .geometry import Geometry, PageLocation
from .iostats import IOStats
from .parity_striping import make_parity_striped, make_twin_parity_striped
from .raid5 import make_raid5, make_twin_raid5
from .raid6 import Raid6Array, make_raid6
from .twin_array import TwinParityArray

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..db.config import DBConfig


@runtime_checkable
class StorageBackend(Protocol):
    """The array surface the database engine is written against."""

    geometry: Geometry
    stats: IOStats
    disks: List
    supports_twins: bool

    @property
    def num_data_pages(self) -> int: ...

    # -- reads (including degraded reconstruction) --------------------------
    def read_page(self, page: int) -> bytes: ...
    def peek_page(self, page: int) -> bytes: ...
    def group_data_payloads(self, group: int) -> List: ...

    # -- writes -------------------------------------------------------------
    def write_page(self, page: int, new_data: bytes,
                   old_data: Optional[bytes] = None) -> None: ...
    def write_group(self, group: int, writes: List,
                    before_write: Callable = ...) -> None: ...
    def full_stripe_write(self, group: int, payloads: List) -> None: ...
    def rewrite_parity(self, group: int, data: List,
                       disk_id: Optional[int] = None) -> None: ...

    # -- failures, rebuild, scrub -------------------------------------------
    def fail_disk(self, disk_id: int) -> None: ...
    def failed_disks(self) -> List: ...
    def rebuild_disk(self, disk_id: int): ...
    def repair_page(self, page: int) -> bytes: ...
    def scrub(self) -> List: ...
    def scrub_repair(self) -> List: ...


@runtime_checkable
class TwinBackend(StorageBackend, Protocol):
    """The extended surface RDA recovery needs: parity twins with
    headers, timestamps, and a Dirty_Set-steered rebuild."""

    clock: int

    def small_write(self, page: int, new_data: bytes, updates: Sequence,
                    old_data: Optional[bytes] = None,
                    twin_first: bool = False,
                    where: Optional[PageLocation] = None) -> None: ...
    def group_small_write(self, group: int, writes: List, which: int,
                          header, before_write: Callable,
                          parity_in_hand: Optional[bytes] = None) -> None: ...
    def write_data_only(self, page: int, new_data: bytes) -> None: ...
    def read_twin(self, group: int, which: int) -> Tuple: ...
    def write_twin(self, group: int, which: int, payload: bytes,
                   header) -> None: ...
    def rewrite_twin_header(self, group: int, which: int, header) -> None: ...
    def peek_twin(self, group: int, which: int) -> Tuple: ...
    def next_timestamp(self) -> int: ...
    def observe_timestamp(self, stamp: int) -> None: ...


BACKENDS: Dict[str, Tuple[Callable[..., StorageBackend], bool, str]] = {
    "twin": (make_twin_raid5, True,
             "twin-parity array (RDA recovery substrate), data-striped"),
    "single": (make_raid5, False, "single-parity RAID-5 array, data-striped"),
    "parity-striped": (make_parity_striped, False,
                       "Gray parity striping (sequential data placement), "
                       "single parity"),
    "twin-parity-striped": (make_twin_parity_striped, True,
                            "Gray parity striping with twin parity pages "
                            "(Figure 5)"),
    "raid6": (make_raid6, False,
              "double-parity P+Q array (two-erasure tolerant); "
              "always data-striped"),
}
"""``DBConfig.backend`` name -> ``(factory, twin, description)``: the
factory builds the array from ``(group_size, num_groups, stats, tracer,
metrics)``; ``twin`` marks a :class:`TwinBackend` (what ``rda=True``
needs)."""


def backend_names() -> List[str]:
    """Every backend name, sorted."""
    return sorted(BACKENDS)


def create_backend(config: "DBConfig", stats: Optional[IOStats] = None,
                   tracer=None, metrics=None) -> StorageBackend:
    """Construct the array for ``config``: its ``backend``, else
    ``twin`` for an RDA configuration and ``single`` for the rest.

    Raises:
        ModelError: unknown backend, or ``rda=True`` over a backend
            without twin support.
    """
    name = config.backend
    if name is None:
        name = "twin" if config.rda else "single"
    try:
        factory, twin, _ = BACKENDS[name]
    except KeyError:
        raise ModelError(f"unknown storage backend {name!r}; choose from "
                         f"{backend_names()}") from None
    if config.rda and not twin:
        raise ModelError(
            f"backend {name!r} has no parity twins; RDA recovery needs a "
            f"twin-capable backend (one of "
            f"{[other for other in backend_names() if BACKENDS[other][1]]})")
    return factory(config.group_size, config.num_groups, stats, tracer,
                   metrics)


if TYPE_CHECKING:  # pragma: no cover - static protocol-conformance checks
    def _static_assert_backends(twin: TwinParityArray,
                                single: SingleParityArray,
                                striped: SingleParityArray,
                                raid6: Raid6Array) -> None:
        backends: List[StorageBackend] = [twin, single, striped, raid6]
        twins: List[TwinBackend] = [twin]
        del backends, twins
