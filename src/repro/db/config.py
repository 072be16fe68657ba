"""Database configurations: the paper's algorithm classes as presets.

Section 5 evaluates four algorithm classes, each with and without RDA
recovery — eight configurations:

==================  ============  =============  =====
class               logging       EOT/checkpoint  RDA
==================  ============  =============  =====
Figure 9            page          FORCE + TOC    ±
Figure 10           page          ¬FORCE + ACC   ±
Figure 11           record        FORCE + TOC    ±
Figure 12           record        ¬FORCE + ACC   ±
==================  ============  =============  =====

A :class:`DBConfig` captures one cell; :func:`preset` builds any of them
by name.  Beyond the paper's grid, four ``…-raid6`` presets rerun the
WAL classes on a double-parity array, and two REDO-only presets add a
fifth algorithm class (no undo log; write-behind propagation and
per-page redo chains): ``page-noforce-redo`` and the RDA+REDO hybrid
``record-noforce-rda-redo``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ModelError


@dataclass(frozen=True)
class DBConfig:
    """One recovery configuration.

    Attributes:
        group_size: N, data pages per parity group.
        num_groups: G, number of parity groups (S = N * G data pages).
        buffer_capacity: B, buffer frames.
        record_logging: record-granularity logging (else page logging).
        force: FORCE + TOC discipline (else ¬FORCE + ACC).
        rda: use RDA recovery (twin-parity array) instead of plain WAL
            over a single-parity array.
        steal: allow uncommitted dirty pages to be written back (the
            paper's assumption; RDA exists to make this cheap).  With
            NO-STEAL no undo information is ever needed, but a buffer
            full of uncommitted pages refuses further work.
        checkpoint_interval: cost units between automatic ACC
            checkpoints (None = manual checkpoints only); ignored under
            FORCE.
        log_transfers_per_page: page transfers charged per filled log
            page per mirror copy.
        backend: storage-backend name
            (:func:`repro.storage.backend_names`); None selects the
            legacy default implied by ``rda`` ("twin" / "single").
            The name fixes the data placement too (``"parity-striped"``
            / ``"twin-parity-striped"``: sequential; the rest: striped).
        redo_only: the fifth (beyond-paper) recovery class: no undo
            log at all.  Redo records are threaded into per-page
            chains and dirty pages may only reach disk once their
            chain is durable (write-behind propagation); restart
            replays each page's chain forward from its on-disk state.
            Requires ¬FORCE.  With ``rda`` this is the RDA+REDO
            hybrid: twin-parity undo handles losers while winners pay
            only redo logging.
    """

    group_size: int = 4
    num_groups: int = 16
    buffer_capacity: int = 32
    record_logging: bool = False
    force: bool = True
    rda: bool = True
    steal: bool = True
    checkpoint_interval: float | None = None
    log_transfers_per_page: int = 1
    backend: str | None = None
    redo_only: bool = False

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ModelError("group_size (N) must be at least 2")
        if self.num_groups < 1:
            raise ModelError("num_groups (G) must be at least 1")
        if self.buffer_capacity < 2:
            raise ModelError("buffer_capacity (B) must be at least 2")
        if self.redo_only and self.force:
            raise ModelError("redo_only requires the ¬FORCE discipline "
                             "(there is no undo log to force against)")

    @property
    def num_data_pages(self) -> int:
        """S: the database size in pages."""
        return self.group_size * self.num_groups

    @property
    def algorithm_name(self) -> str:
        """Human-readable name matching the paper's terminology."""
        logging = "record" if self.record_logging else "page"
        discipline = "FORCE/TOC" if self.force else "¬FORCE/ACC"
        recovery = "RDA" if self.rda else "¬RDA"
        name = f"{logging} logging, {discipline}, {recovery}"
        if self.redo_only:
            name += ", REDO-only"
        if self.backend is not None:
            name += f", backend={self.backend}"
        return name


_PRESETS = {
    "page-force-rda": dict(record_logging=False, force=True, rda=True),
    "page-force-log": dict(record_logging=False, force=True, rda=False),
    "page-noforce-rda": dict(record_logging=False, force=False, rda=True),
    "page-noforce-log": dict(record_logging=False, force=False, rda=False),
    "record-force-rda": dict(record_logging=True, force=True, rda=True),
    "record-force-log": dict(record_logging=True, force=True, rda=False),
    "record-noforce-rda": dict(record_logging=True, force=False, rda=True),
    "record-noforce-log": dict(record_logging=True, force=False, rda=False),
}

# beyond-paper presets: the WAL configurations over the double-parity
# RAID-6 tier (RDA needs twins, so there is no "-rda" raid6 cell), plus
# the fifth recovery class — REDO-only (no undo log, write-behind
# propagation, per-page redo chains) — pure and as the RDA hybrid
_EXTENDED_PRESETS = {
    "page-force-raid6": dict(record_logging=False, force=True, rda=False,
                             backend="raid6"),
    "page-noforce-raid6": dict(record_logging=False, force=False, rda=False,
                               backend="raid6"),
    "record-force-raid6": dict(record_logging=True, force=True, rda=False,
                               backend="raid6"),
    "record-noforce-raid6": dict(record_logging=True, force=False, rda=False,
                                 backend="raid6"),
    "page-noforce-redo": dict(record_logging=False, force=False, rda=False,
                              redo_only=True),
    "record-noforce-rda-redo": dict(record_logging=True, force=False,
                                    rda=True, redo_only=True),
}


def preset(name: str, **overrides) -> DBConfig:
    """Build a configuration by name: one of the eight paper cells
    (``{page|record}-{force|noforce}-{rda|log}``) or an extended
    ``…-raid6`` cell; keyword overrides adjust sizes etc.
    """
    base = _PRESETS.get(name)
    if base is None:
        base = _EXTENDED_PRESETS.get(name)
    if base is None:
        raise ModelError(
            f"unknown preset {name!r}; choose from "
            f"{extended_preset_names()}") from None
    merged = dict(base)
    merged.update(overrides)
    return DBConfig(**merged)


def all_preset_names() -> list:
    """The eight paper configuration names, sorted."""
    return sorted(_PRESETS)


def extended_preset_names() -> list:
    """All preset names — the paper's eight plus the raid6 cells."""
    return sorted({**_PRESETS, **_EXTENDED_PRESETS})
