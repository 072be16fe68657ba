"""Per-operation transfer costs: the paper's cost table as data.

Section 4 prices every storage primitive in page transfers — a small
write costs ``a ∈ {3, 4}``, a write into a dirty group ``a + 2``, k
pages restored into one group ``2k + 2`` less the old images in hand, an
RDA commit zero, an undo via the parity twins five to six.  This module
is the single source of truth for those predictions, shared by

* the cost-table renderer (:mod:`repro.obs.inspect`, ``python -m repro
  inspect-trace``), which shows the display string next to measured
  means, and
* the online drift detector (:mod:`repro.obs.drift`), which needs the
  *numeric* band to decide whether a measured mean still matches.

Each entry keys on an event-variant prefix (see
:func:`repro.obs.inspect.event_key`); prefix matching lets rotated
attribute values still hit.  Entries whose cost depends on the group
size ``N`` (degraded reads, reconstructing writes) carry no numeric
band — the drift detector skips them rather than guess ``N``.
"""

from __future__ import annotations

from typing import NamedTuple


class OperationCost(NamedTuple):
    """One row of the model's cost table.

    Attributes:
        key: event-variant key prefix the row prices.
        prediction: display string for the cost table (``"-"`` and
            ``""`` mean "the model does not price this").
        lo: lower bound of the predicted transfer count, or None when
            the cost is not a run-independent constant.
        hi: upper bound (equal to ``lo`` for point predictions).
    """

    key: str
    prediction: str
    lo: float | None = None
    hi: float | None = None


OPERATION_COSTS = (
    OperationCost("array.small_write[buffered=False,twins=1]", "4", 4, 4),
    OperationCost("array.small_write[buffered=True,twins=1]", "3", 3, 3),
    OperationCost("array.small_write[buffered=False,twins=2]", "6 (4+2)",
                  6, 6),
    OperationCost("array.small_write[buffered=True,twins=2]", "5 (3+2)",
                  5, 5),
    OperationCost("array.small_write[mode=small,buffered=False]", "4", 4, 4),
    OperationCost("array.small_write[mode=small,buffered=True]", "3", 3, 3),
    OperationCost("array.small_write[mode=reconstruct", "N+1"),
    # k pages of one group under one parity read (none with the parity
    # in hand) and one parity write: no constant band, the price moves
    # with the event (group_write_transfers)
    OperationCost("array.group_write", "2k+2-b-p"),
    OperationCost("rda.commit", "0", 0, 0),
    OperationCost("rda.twin_flip", "0", 0, 0),
    OperationCost("rda.undo", "5-6", 5, 6),
    OperationCost("array.degraded_read", "N"),
    OperationCost("txn[outcome=committed]", "-"),
    OperationCost("txn[outcome=aborted]", "-"),
    # composite spans: the model prices the primitives inside them, not
    # the span totals (restart cost is c_s at run granularity)
    OperationCost("recovery.", "-"),
    OperationCost("checkpoint", "-"),
    OperationCost("array.rebuild", "-"),
    # REDO-only class: chain replay of one repaired sector and the
    # hybrid's un-steal promotion are run-shape dependent, so unpriced
    OperationCost("redo.single_page", "-"),
    OperationCost("redo.unsteal", "-"),
    OperationCost("rda.parity_resync", "-"),
)
"""The paper's cost model, one row per priced event variant."""

MODEL_EXPECTATIONS = tuple(
    (cost.key, cost.prediction) for cost in OPERATION_COSTS)
"""``(variant-key prefix, display prediction)`` pairs (the historical
:data:`repro.obs.inspect.MODEL_EXPECTATIONS` shape)."""


def group_write_transfers(pages: int, buffered_pages: int,
                          parity_in_hand: int = 0) -> int:
    """The model price of one ``array.group_write``: restart restores
    ``pages`` pages of one parity group under one parity read and one
    parity write — per page the data write and, unless its old image is
    among the ``buffered_pages`` already in hand, one read.  k = 1 is
    the small write's ``a``: 4, or 3 buffered.  ``parity_in_hand`` (0 or
    1) takes the parity read off: on a twin array restart's scan read
    the group's current twin already.  Restart itself always has
    ``buffered_pages == pages`` (it reads every base first, to write
    only the pages that differ — those reads sit in the restore phase,
    outside this event); a caller of ``write_group`` may still pass none."""
    return 2 * pages + 2 - buffered_pages - parity_in_hand


def transfer_bands() -> dict:
    """The constant-priced rows as ``{key_prefix: (lo, hi)}``.

    This is what the drift detector compares measured means against;
    ``N``-dependent and unpriced rows are excluded.
    """
    return {cost.key: (cost.lo, cost.hi) for cost in OPERATION_COSTS
            if cost.lo is not None}


def predicted_band(key: str) -> tuple | None:
    """The ``(lo, hi)`` band for an event-variant key, prefix-matched;
    None when the model has no constant price for it."""
    for cost in OPERATION_COSTS:
        if key.startswith(cost.key):
            if cost.lo is None:
                return None
            return (cost.lo, cost.hi)
    return None
