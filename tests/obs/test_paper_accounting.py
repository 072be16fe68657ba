"""Integration: traced per-event costs reproduce the paper's model.

The analytical model (Section 5) prices each operation in page
transfers: a small write costs 4 (3 with the old data buffered), a
write into a dirty group costs a + 2, an RDA commit costs zero, an
undo-via-parity five to six.  These tests drive the real stack with a
recording tracer and assert the aggregated trace shows exactly those
numbers.
"""

from repro.core.rda import RDAManager
from repro.db import Database, preset
from repro.obs import (MetricsRegistry, RingBufferSink, Tracer,
                       aggregate_events)
from repro.sim import Simulator, WorkloadSpec
from repro.storage import IOStats, make_page
from repro.storage.raid5 import make_twin_raid5


def traced_rda():
    sink = RingBufferSink()
    array = make_twin_raid5(4, 8, stats=IOStats(), tracer=Tracer(sink),
                            metrics=MetricsRegistry())
    return RDAManager(array), sink


def rows_for(sink):
    return aggregate_events(sink.events())


def test_small_write_costs_four_or_three():
    rda, sink = traced_rda()
    page = rda.array.geometry.group_pages(0)[0]
    first = make_page(b"v1")
    rda.write_committed(page, first)                    # a = 4
    rda.write_committed(page, make_page(b"v2"),
                        old_data=first)                 # a = 3 (buffered)
    rows = rows_for(sink)
    assert rows["array.small_write[buffered=False,twins=1]"][
        "mean_transfers"] == 4.0
    assert rows["array.small_write[buffered=True,twins=1]"][
        "mean_transfers"] == 3.0
    hist = rda.metrics.snapshot()["histograms"]["array.small_write_transfers"]
    assert hist["count"] == 2 and hist["min"] == 3 and hist["max"] == 4


def test_dirty_group_write_costs_a_plus_two():
    rda, sink = traced_rda()
    pages = rda.array.geometry.group_pages(1)
    stolen, other = pages[0], pages[1]
    rda.write_uncommitted(stolen, make_page(b"uncommitted"), txn_id=7,
                          old_data=rda.array.peek_page(stolen))
    # committed writes into the now-dirty group update BOTH twins
    before = rda.array.peek_page(other)
    rda.write_committed(other, make_page(b"committed"),
                        old_data=before)                # 3 + 2
    rda.write_committed(other, make_page(b"again"))     # 4 + 2
    rows = rows_for(sink)
    assert rows["array.small_write[buffered=True,twins=2]"][
        "mean_transfers"] == 5.0
    assert rows["array.small_write[buffered=False,twins=2]"][
        "mean_transfers"] == 6.0


def test_group_write_is_one_event_priced_two_k_plus_two():
    """Three pages of one clean group, one old image in hand: one
    ``array.group_write`` event (no small-write row per page), 2·3 + 2 −
    1 transfers, observed once in the transfer histogram."""
    rda, sink = traced_rda()
    pages = rda.array.geometry.group_pages(2)[:3]
    writes = [(page, make_page(b"r%d" % page), None) for page in pages]
    writes[0] = (*writes[0][:2], rda.array.peek_page(pages[0]))
    with rda.array.stats.window() as measured:
        rda.write_group_committed(2, writes, lambda *label: None)
    (event,) = sink.events()
    assert event["name"] == "array.group_write"
    assert event["attrs"] == {"group": 2, "pages": 3, "buffered_pages": 1,
                              "parity_in_hand": 0,
                              "reads": 3, "writes": 4, "transfers": 7}
    assert measured.total == 7
    (row,) = rows_for(sink).values()
    assert row["mean_transfers"] == 7.0 and row["model"] == "2k+2-b-p = 7"
    hist = rda.metrics.snapshot()["histograms"]["array.small_write_transfers"]
    assert hist["count"] == 1 and hist["max"] == 7


def test_group_write_with_the_parity_in_hand_is_priced_one_less():
    """The same three pages after a crash scan that kept the group's
    current twin: the event says so, reads one page less, and the model
    column prices it 2·3 + 2 − 1 − 1."""
    rda, sink = traced_rda()
    pages = rda.array.geometry.group_pages(2)[:3]
    writes = [(page, make_page(b"r%d" % page), None) for page in pages]
    writes[0] = (*writes[0][:2], rda.array.peek_page(pages[0]))
    rda.crash_scan(committed_txns=set(), keep={2})
    with rda.array.stats.window() as measured:
        rda.write_group_committed(2, writes, lambda *label: None)
    event = sink.events()[-1]           # after the scan's span
    assert event["attrs"] == {"group": 2, "pages": 3, "buffered_pages": 1,
                              "parity_in_hand": 1,
                              "reads": 2, "writes": 4, "transfers": 6}
    assert measured.total == 6
    (row,) = aggregate_events([event]).values()
    assert row["mean_transfers"] == 6.0 and row["model"] == "2k+2-b-p = 6"
    assert rda.array.scrub() == []


def test_rda_commit_costs_zero_transfers():
    rda, sink = traced_rda()
    page = rda.array.geometry.group_pages(2)[0]
    rda.write_uncommitted(page, make_page(b"steal"), txn_id=3)
    before = rda.array.stats.total
    rda.commit_txn(3)
    assert rda.array.stats.total == before      # truly no I/O
    rows = rows_for(sink)
    assert rows["rda.commit"]["mean_transfers"] == 0.0
    assert rows["rda.twin_flip"]["mean_transfers"] == 0.0
    assert rda.metrics.snapshot()["counters"]["rda.commits"] == 1


def test_undo_via_parity_costs_five_to_six():
    rda, sink = traced_rda()
    group = 3
    page = rda.array.geometry.group_pages(group)[0]
    original = rda.array.peek_page(page)
    rda.write_uncommitted(page, make_page(b"doomed"), txn_id=9)
    rda.undo_group(group)
    assert rda.array.peek_page(page) == original
    row = rows_for(sink)["rda.undo[buffered=False]"]
    assert row["count"] == 1
    assert 5 <= row["mean_transfers"] <= 6


def test_traced_database_run_matches_model_and_snapshot():
    sink = RingBufferSink(capacity=200_000)
    tracer = Tracer(sink)
    metrics = MetricsRegistry()
    db = Database(preset("page-force-rda", group_size=4, num_groups=16,
                         buffer_capacity=12),
                  tracer=tracer, metrics=metrics)
    spec = WorkloadSpec(concurrency=3, pages_per_txn=4,
                        update_txn_fraction=1.0, update_probability=1.0,
                        abort_probability=0.1, communality=0.5)
    report = Simulator(db, spec, seed=1).run(40, crash_every=15)
    rows = aggregate_events(sink.events())

    expected = {
        "array.small_write[buffered=False,twins=1]": 4.0,
        "array.small_write[buffered=True,twins=1]": 3.0,
        "array.small_write[buffered=False,twins=2]": 6.0,
        "array.small_write[buffered=True,twins=2]": 5.0,
    }
    seen = 0
    for key, mean in expected.items():
        if key in rows:
            assert rows[key]["mean_transfers"] == mean, key
            seen += 1
    assert seen >= 2          # the workload must exercise the model

    assert rows["rda.commit"]["mean_transfers"] == 0.0
    assert "recovery.restart" in rows
    assert rows["txn[outcome=committed]"]["count"] == report.committed

    snap = report.extra["metrics"]
    # metric counters are cumulative; BufferStats resets at each crash
    assert snap["counters"]["buffer.hits"] >= db.buffer.stats.hits > 0
    assert snap["counters"]["txn.finished{outcome=committed}"] \
        == report.committed
    assert report.extra["trace_events"] == tracer.events_emitted
    assert db.verify_parity() == []
