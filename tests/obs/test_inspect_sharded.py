"""``inspect-trace`` over sharded, batched traces.

The sharded engine emits one coalesced ``array.small_write_batch``
event per multi-page write-back window (and ``rda.commit`` events
carrying ``groups``) instead of one event per page.  :func:`aggregate_events` expands those back into the
model-priced per-operation variants; these tests pin the contract that
the expansion prices a batched trace *identically* to a legacy per-op
trace of the same workload.
"""

import pytest

from repro.db import ShardedDatabase, preset
from repro.obs import (RingBufferSink, Tracer, aggregate_events, event_key,
                       model_expectation)
from repro.sim import Simulator, WorkloadSpec

SMALL_WRITE_VARIANTS = ("array.small_write[buffered=True,twins=1]",
                        "array.small_write[buffered=False,twins=1]")


def legacy_expansion(events):
    """Rewrite a batched trace as the per-op trace the engine emitted
    before window coalescing: one ``array.small_write`` per page at the
    model's exact prices, one ``rda.twin_flip``/``rda.group_dirty`` per
    flipped/newly-dirty group."""
    legacy = []
    for event in events:
        attrs = dict(event.get("attrs") or {})
        name = event["name"]
        if name == "array.small_write_batch":
            buffered = attrs.get("buffered_pages", 0)
            plain = attrs.get("pages", 0) - buffered
            for _ in range(buffered):
                legacy.append({"name": "array.small_write",
                               "attrs": {"buffered": True, "twins": 1,
                                         "reads": 1, "writes": 2,
                                         "transfers": 3}})
            for _ in range(plain):
                legacy.append({"name": "array.small_write",
                               "attrs": {"buffered": False, "twins": 1,
                                         "reads": 2, "writes": 2,
                                         "transfers": 4}})
            for _ in range(attrs.get("first_steals", 0)):
                legacy.append({"name": "rda.group_dirty", "attrs": {}})
            continue
        if name == "rda.commit":
            for _ in range(attrs.get("groups", 0)):
                legacy.append({"name": "rda.twin_flip",
                               "attrs": {"reads": 0, "writes": 0,
                                         "transfers": 0}})
            attrs.pop("groups", None)
            legacy.append({"name": name, "attrs": attrs})
            continue
        legacy.append(event)
    return legacy


@pytest.fixture(scope="module", params=[2, 4])
def traces(request):
    """(batched trace, legacy per-op trace) for one sharded run."""
    tracer = Tracer(RingBufferSink())
    db = ShardedDatabase(preset("page-force-rda", group_size=4,
                                num_groups=16, buffer_capacity=12),
                         shards=request.param, tracer=tracer)
    simulator = Simulator(db, WorkloadSpec(concurrency=3, pages_per_txn=3),
                          seed=5)
    simulator.run(40)
    batched = tracer.sink.events()
    return batched, legacy_expansion(batched)


def test_sharded_run_emits_batched_events(traces):
    batched, _ = traces
    windows = [e["attrs"] for e in batched
               if e["name"] == "array.small_write_batch"]
    # a window event stands for the single-twin pages of a multi-page
    # write-back; a one-page write-back (a shard's single page of a
    # commit, an eviction, an abort) and a two-twin write keep their own
    # per-page event, which names the page
    assert windows and any(attrs["pages"] > 1 for attrs in windows)
    assert all("page" in e["attrs"] for e in batched
               if e["name"] == "array.small_write")


def test_batch_expansion_prices_like_legacy_trace(traces):
    batched, legacy = traces
    rows = aggregate_events(batched)
    legacy_rows = aggregate_events(legacy)
    for variant in SMALL_WRITE_VARIANTS:
        if variant not in legacy_rows:
            continue
        for field in ("count", "reads", "writes", "transfers",
                      "mean_transfers", "model"):
            assert rows[variant][field] == legacy_rows[variant][field], \
                (variant, field)


def test_expanded_variants_match_model_exactly(traces):
    batched, _ = traces
    rows = aggregate_events(batched)
    assert rows["array.small_write[buffered=True,twins=1]"][
        "mean_transfers"] == 3.0
    if "array.small_write[buffered=False,twins=1]" in rows:
        assert rows["array.small_write[buffered=False,twins=1]"][
            "mean_transfers"] == 4.0
    assert rows["rda.twin_flip"]["mean_transfers"] == 0.0


def test_bookkeeping_rows_match_legacy(traces):
    batched, legacy = traces
    rows = aggregate_events(batched)
    legacy_rows = aggregate_events(legacy)
    for marker in ("rda.twin_flip", "rda.group_dirty"):
        if marker in legacy_rows or marker in rows:
            assert rows[marker]["count"] == legacy_rows[marker]["count"]


def test_shard_label_does_not_split_variants(traces):
    """The ``shard`` attr labels events but is not a VARIANT_KEY: a
    K-way trace aggregates into the same per-variant rows as K=1."""
    batched, _ = traces
    for event in batched:
        attrs = event.get("attrs") or {}
        key = event_key(event["name"], attrs)
        assert "shard=" not in key


def test_model_expectation_prefix_matches_expanded_keys():
    assert model_expectation(
        "array.small_write[buffered=True,twins=1]") == "3"
    assert model_expectation(
        "array.small_write[buffered=False,twins=1]") == "4"
    assert model_expectation("rda.twin_flip") == "0"
