"""Trace aggregation: from an event stream to the paper's cost table.

The analytical model (Section 5) predicts a page-transfer cost per
*operation type*: a small write costs ``a ∈ {3, 4}`` transfers, a write
into a dirty group ``a + 2``, k pages written into one group ``2k + 2``
less the old images in hand (restart has all k: it read them to find the
k that differ), an RDA commit zero, an undo-via-parity five to six.
:func:`aggregate_events` reduces a recorded trace to exactly that shape
— per event *variant*, the count and the mean read/write/transfer cost
— so a simulated run can be cross-checked against the model
event-by-event instead of per-run.

Event variants: events of the same name are split by the small set of
discriminating attributes in :data:`VARIANT_KEYS` (e.g.
``array.small_write[buffered=False,twins=1]`` vs
``array.small_write[twins=2]``), because the model prices those
variants differently.
"""

from __future__ import annotations

import json

from ..errors import ModelError
from ..model.operations import MODEL_EXPECTATIONS, group_write_transfers

VARIANT_KEYS = ("mode", "buffered", "twins", "logged", "degraded",
                "outcome", "reason", "cause", "phase")
"""Attribute names that split one event name into model-priced variants,
in the order they appear in the variant suffix."""

# MODEL_EXPECTATIONS lives in repro.model.operations (the numeric bands
# feed the drift detector too); imported here for existing call sites.


def model_expectation(key: str) -> str:
    """The model's predicted transfer count for an event variant
    (``""`` when the model does not price it)."""
    for prefix, prediction in MODEL_EXPECTATIONS:
        if key.startswith(prefix):
            return prediction
    return ""


def event_key(name: str, attrs: dict) -> str:
    """Aggregation key: the event name plus its discriminating attrs."""
    variants = [f"{k}={attrs[k]}" for k in VARIANT_KEYS if k in attrs]
    if not variants:
        return name
    return f"{name}[{','.join(variants)}]"


def load_trace(path) -> list:
    """Parse a JSONL trace file into event dicts.

    Raises:
        ModelError: on a malformed line (truncated file, non-JSON).
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as error:
                raise ModelError(
                    f"{path}:{lineno}: malformed trace line: {error}"
                ) from None
            if not isinstance(event, dict) or "name" not in event:
                raise ModelError(
                    f"{path}:{lineno}: trace line is not an event object")
            events.append(event)
    return events


def aggregate_events(events) -> dict:
    """Reduce events to per-variant cost rows.

    Returns ``{variant_key: {"count", "reads", "writes", "transfers",
    "mean_reads", "mean_writes", "mean_transfers", "dur_ms",
    "model"}}``; the transfer fields stay ``None`` for event types that
    never carried a cost (pure markers like ``txn.begin``).
    """
    rows: dict = {}

    def add(key, count, reads=None, writes=None, transfers=None,
            dur_ms=None):
        row = rows.get(key)
        if row is None:
            row = {"count": 0, "reads": None, "writes": None,
                   "transfers": None, "dur_ms": None}
            rows[key] = row
        row["count"] += count
        for field, value in (("reads", reads), ("writes", writes),
                             ("transfers", transfers), ("dur_ms", dur_ms)):
            if value is not None:
                row[field] = value if row[field] is None else row[field] + value
        return row

    group_write_model = 0
    for event in events:
        attrs = event.get("attrs", {})
        name = event["name"]
        if name == "array.group_write":
            # priced per event: the model column shows the mean price
            # of the groups this trace wrote, next to the mean measured
            group_write_model += group_write_transfers(
                attrs["pages"], attrs["buffered_pages"],
                attrs.get("parity_in_hand", 0))
        if name == "array.small_write_batch":
            # one coalesced window event stands in for per-page
            # small-write events; expand it back into the model-priced
            # variants (only inline single-twin writes are coalesced,
            # and they cost exactly 3 buffered / 4 unbuffered transfers)
            buffered = attrs.get("buffered_pages", 0)
            plain = attrs.get("pages", 0) - buffered
            if buffered:
                add("array.small_write[buffered=True,twins=1]", buffered,
                    reads=buffered, writes=2 * buffered,
                    transfers=3 * buffered)
            if plain:
                add("array.small_write[buffered=False,twins=1]", plain,
                    reads=2 * plain, writes=2 * plain, transfers=4 * plain)
            first = attrs.get("first_steals", 0)
            if first:
                # the RDA manager's per-window count rides on this
                # event; each first steal stands in for one
                # rda.group_dirty marker
                add("rda.group_dirty", first)
            add(name, 1, dur_ms=attrs.get("dur_ms"))
            continue
        if name == "rda.commit":
            # each dirty group flipped at this commit stands in for one
            # legacy rda.twin_flip event (zero transfers by definition)
            flips = attrs.get("groups", 0)
            if flips:
                add("rda.twin_flip", flips, reads=0, writes=0, transfers=0)
            add(event_key(name, attrs), 1,
                reads=attrs.get("reads", 0), writes=attrs.get("writes", 0),
                transfers=attrs.get("transfers"))
            continue
        add(event_key(name, attrs), 1,
            reads=attrs.get("reads", 0) if "transfers" in attrs else None,
            writes=attrs.get("writes", 0) if "transfers" in attrs else None,
            transfers=attrs.get("transfers") if "transfers" in attrs else None,
            dur_ms=attrs.get("dur_ms"))
    for key, row in rows.items():
        for field in ("reads", "writes", "transfers"):
            total = row[field]
            row[f"mean_{field}"] = (round(total / row["count"], 3)
                                    if total is not None else None)
        row["model"] = model_expectation(key)
    if group_write_model:
        row = rows["array.group_write"]
        row["model"] += f" = {round(group_write_model / row['count'], 3):g}"
    return rows


def aggregate_trace_file(path) -> dict:
    """:func:`load_trace` + :func:`aggregate_events`."""
    return aggregate_events(load_trace(path))


def unpriced_ops(rows: dict) -> list:
    """Variant keys that carried transfer costs the model knows nothing
    about (``model == ""``): candidates for a new
    :data:`~repro.model.operations.OPERATION_COSTS` row.  Rows the
    model *explicitly* declines to price (``"-"``) are not returned —
    only silent gaps.  Sorted by total transfers, heaviest first."""
    return sorted((key for key, row in rows.items()
                   if row.get("transfers") is not None and not row["model"]),
                  key=lambda key: (-(rows[key]["transfers"] or 0), key))


def format_cost_table(rows: dict) -> str:
    """Render aggregated rows as the per-event-type cost table."""
    header = (f"{'event':<48} {'count':>7} {'reads':>7} {'writes':>7} "
              f"{'mean xfer':>9}  {'model':<8}")
    lines = [header, "-" * len(header)]
    for key in sorted(rows, key=lambda k: (-(rows[k]['transfers'] or 0), k)):
        row = rows[key]

        def fmt(value):
            return f"{value:.2f}" if value is not None else "-"

        lines.append(
            f"{key:<48} {row['count']:>7} {fmt(row['mean_reads']):>7} "
            f"{fmt(row['mean_writes']):>7} {fmt(row['mean_transfers']):>9}  "
            f"{row['model']:<8}")
    missing = unpriced_ops(rows)
    if missing:
        # previously these rows rendered with an empty model column and
        # nothing flagged the gap; make the accounting hole explicit
        lines.append(f"warning: {len(missing)} op class(es) carry transfer "
                     f"costs the model does not know: {', '.join(missing)}")
    return "\n".join(lines)
