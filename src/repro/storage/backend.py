"""The storage-backend protocol and registry.

Every array the engine can run on — twin-parity (RDA), single-parity
(classical RAID-5), the parity-striped placements of Gray et al., and
the double-parity RAID-6 tier — presents the same structural surface to
the database: read (with degraded reconstruction), write, full-stripe
write, fail/rebuild/scrub, and parity repair.  :class:`StorageBackend`
states that surface as a :class:`typing.Protocol`, so conformance is
checked *structurally* (mypy verifies every registered array satisfies
it; no inheritance required), and :func:`create_backend` constructs one
from a :class:`~repro.db.config.DBConfig` by registry name.

Twin-specific operations (``read_twin``/``write_twin``/``small_write``
and the Dirty_Set-steered rebuild) form the narrower
:class:`TwinBackend` protocol; a backend advertises that capability via
``supports_twins`` — the capability flag :mod:`repro.db.recovery` and
the policy layer branch on instead of ``isinstance`` checks.

Adding a backend is ~50 lines: implement the protocol (usually by
subclassing :class:`~repro.storage.array.DiskArray`), then::

    register_backend("my-layout", _make_my_layout, twin=False,
                     description="...")

after which ``DBConfig(backend="my-layout")`` and
``repro simulate --backend my-layout`` reach it with no engine changes.
See ``docs/architecture.md`` for the worked example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Protocol,
                    Tuple, runtime_checkable)

from ..errors import ModelError
from .array import SingleParityArray
from .geometry import Geometry, parity_striping_geometry, raid5_geometry
from .iostats import IOStats
from .raid6 import Raid6Array, raid6_geometry
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
    def read_page_healing(self, page: int) -> bytes: ...
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

    def small_write(self, page: int, new_data: bytes, updates: List,
                    old_data: Optional[bytes] = None,
                    twin_first: bool = False) -> None: ...
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


BackendFactory = Callable[["DBConfig", Optional[IOStats], object, object],
                          StorageBackend]


@dataclass(frozen=True)
class BackendSpec:
    """One registry entry.

    Attributes:
        name: registry key (the ``DBConfig.backend`` value).
        factory: builds the array from ``(config, stats, tracer, metrics)``.
        twin: True when the backend satisfies :class:`TwinBackend`
            (required for ``rda=True`` configurations).
        description: one line for ``--help`` and docs.
    """

    name: str
    factory: BackendFactory
    twin: bool
    description: str


_REGISTRY: Dict[str, BackendSpec] = {}


def register_backend(name: str, factory: BackendFactory, *, twin: bool,
                     description: str = "") -> BackendSpec:
    """Register (or replace) a backend under ``name``."""
    spec = BackendSpec(name=name, factory=factory, twin=twin,
                       description=description)
    _REGISTRY[name] = spec
    return spec


def backend_names() -> List[str]:
    """All registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_spec(name: str) -> BackendSpec:
    """Look up one registry entry.

    Raises:
        ModelError: unknown backend name.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ModelError(
            f"unknown storage backend {name!r}; choose from "
            f"{backend_names()}") from None


def resolve_backend_name(config: "DBConfig") -> str:
    """The backend a configuration runs on: its explicit ``backend``
    field, else the legacy default implied by ``rda``."""
    if config.backend is not None:
        return config.backend
    return "twin" if config.rda else "single"


def create_backend(config: "DBConfig", stats: Optional[IOStats] = None,
                   tracer=None, metrics=None) -> StorageBackend:
    """Construct the array for ``config`` via the registry.

    Raises:
        ModelError: unknown backend, or ``rda=True`` over a backend
            without twin support.
    """
    name = resolve_backend_name(config)
    spec = backend_spec(name)
    if config.rda and not spec.twin:
        raise ModelError(
            f"backend {name!r} has no parity twins; RDA recovery needs a "
            f"twin-capable backend (one of "
            f"{[s for s in backend_names() if _REGISTRY[s].twin]})")
    return spec.factory(config, stats, tracer, metrics)


# -- built-in backends -------------------------------------------------------


def _make_twin(config, stats, tracer, metrics) -> TwinParityArray:
    geometry = raid5_geometry(config.group_size, config.num_groups, twin=True)
    return TwinParityArray(geometry, stats=stats, tracer=tracer,
                           metrics=metrics)


def _make_single(config, stats, tracer, metrics) -> SingleParityArray:
    geometry = raid5_geometry(config.group_size, config.num_groups,
                              twin=False)
    return SingleParityArray(geometry, stats=stats, tracer=tracer,
                             metrics=metrics)


def _make_parity_striped(config, stats, tracer, metrics) -> SingleParityArray:
    geometry = parity_striping_geometry(config.group_size, config.num_groups,
                                        twin=False)
    return SingleParityArray(geometry, stats=stats, tracer=tracer,
                             metrics=metrics)


def _make_twin_parity_striped(config, stats, tracer,
                              metrics) -> TwinParityArray:
    geometry = parity_striping_geometry(config.group_size, config.num_groups,
                                        twin=True)
    return TwinParityArray(geometry, stats=stats, tracer=tracer,
                           metrics=metrics)


def _make_raid6(config, stats, tracer, metrics) -> Raid6Array:
    geometry = raid6_geometry(config.group_size, config.num_groups)
    return Raid6Array(geometry, stats=stats, tracer=tracer, metrics=metrics)


register_backend(
    "twin", _make_twin, twin=True,
    description="twin-parity array (RDA recovery substrate), data-striped")
register_backend(
    "single", _make_single, twin=False,
    description="single-parity RAID-5 array, data-striped")
register_backend(
    "parity-striped", _make_parity_striped, twin=False,
    description="Gray parity striping (sequential data placement), "
                "single parity")
register_backend(
    "twin-parity-striped", _make_twin_parity_striped, twin=True,
    description="Gray parity striping with twin parity pages (Figure 5)")
register_backend(
    "raid6", _make_raid6, twin=False,
    description="double-parity P+Q array (two-erasure tolerant); "
                "always data-striped")


if TYPE_CHECKING:  # pragma: no cover - static protocol-conformance checks
    def _static_assert_backends(twin: TwinParityArray,
                                single: SingleParityArray,
                                striped: SingleParityArray,
                                raid6: Raid6Array) -> None:
        backends: List[StorageBackend] = [twin, single, striped, raid6]
        twins: List[TwinBackend] = [twin]
        del backends, twins
