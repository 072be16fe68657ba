"""The contracts that let observation be cheap (docs/observability.md,
"What observation costs"): a registry reads what layers count anyway,
the JSONL sink encodes late, and neither may change what is reported.
"""

import copy
import gc
import json

import pytest

from repro.db import Database, preset
from repro.obs import (BufferedJsonlSink, MetricsRegistry, NullSink, Tracer,
                       load_trace)
from repro.sim import Simulator, WorkloadSpec
from repro.storage import make_page

SPEC = WorkloadSpec(concurrency=4, pages_per_txn=6, abort_probability=0.05)


def simulate(name: str, tracer=None, metrics=None, transactions: int = 150,
             seed: int = 3):
    db = Database(preset(name, group_size=5, num_groups=12,
                         buffer_capacity=16), tracer=tracer, metrics=metrics)
    simulator = Simulator(db, SPEC, seed=seed, buffer_feedback=False)
    if simulator.record_mode:
        simulator.seed_records()
    simulator.run(transactions, crash_every=60)
    return db


# one preset per array class (twin, single parity, RAID-6) plus the
# record-mode and ¬FORCE write-back paths
@pytest.mark.parametrize("name", [
    "page-force-rda", "page-force-log", "page-force-raid6",
    "record-noforce-rda", "page-noforce-rda"])
def test_a_registry_reports_the_same_with_and_without_a_tracer(name):
    alone, traced = MetricsRegistry(), MetricsRegistry()
    simulate(name, metrics=alone)
    simulate(name, metrics=traced, tracer=Tracer(NullSink()))
    snapshot = alone.snapshot()
    assert snapshot == traced.snapshot()
    # the array's histogram used to be fed inside the traced branch only
    transfers = snapshot["histograms"]["array.small_write_transfers"]
    # 2 since PR 23: restart restores one page with its base and its
    # group's twin both in hand — a data write and a twin write
    assert transfers["count"] > 100 and transfers["min"] >= 2


def test_nobody_mutates_an_event_after_emit(tmp_path):
    """The sink keeps the dicts it is handed until the chunk is encoded:
    what the file says must be what each event was when emitted."""
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(BufferedJsonlSink(path))
    at_emit = []
    tracer.add_observer(lambda event: at_emit.append(copy.deepcopy(event)))
    simulate("record-noforce-rda", tracer=tracer, metrics=MetricsRegistry())
    tracer.close()
    assert len(at_emit) > 1500
    assert load_trace(path) == json.loads(json.dumps(at_emit))


def test_pulled_counters_stay_monotonic_across_crash_and_recover():
    registry = MetricsRegistry()
    db = Database(preset("page-force-rda", group_size=5, num_groups=12,
                         buffer_capacity=8), metrics=registry)
    previous = registry.snapshot()["counters"]
    references = 0
    for round_ in range(4):
        txn = db.begin()
        for page in range(round_, round_ + 12):
            db.read_page(txn, page)
            db.write_page(txn, page, make_page(b"round%d" % round_))
        if round_ % 2:
            db.commit(txn)
        references += db.buffer.stats.references    # the crash resets these
        for step in (db.crash, db.recover):
            step()
            counters = registry.snapshot()["counters"]
            for series, value in previous.items():
                assert counters[series] >= value, series
            previous = counters
        # BufferStats restarted from zero; the registry's series did not
        assert db.buffer.stats.references == 0
        assert counters["buffer.hits"] + counters["buffer.misses"] \
            == references >= 36 * (round_ + 1)
    assert counters["buffer.evictions"] > 0
    assert counters["db.steals{mode=unlogged}"] \
        == db.counters.unlogged_steals > 0
    assert registry.snapshot()["gauges"]["rda.dirty_groups"] \
        == len(db.rda.dirty_set)


def test_two_databases_on_one_registry_sum():
    shared = MetricsRegistry()
    separate = [MetricsRegistry(), MetricsRegistry()]
    for seed, own in zip((3, 4), separate):
        for registry in (shared, own):
            db = simulate("page-noforce-rda", metrics=registry, seed=seed,
                          transactions=90)
            # left mid-flight so the dirty-group gauge has something to add
            txn = db.begin()
            db.write_page(txn, 0, make_page(b"held"))
            db.buffer.flush_page(0)
    summed = shared.snapshot()
    first, second = (registry.snapshot() for registry in separate)
    for kind in ("counters", "gauges"):
        assert summed[kind] == {
            series: first[kind].get(series, 0) + second[kind].get(series, 0)
            for series in first[kind].keys() | second[kind].keys()}
    assert summed["gauges"]["rda.dirty_groups"] >= 1
    assert summed["counters"]["buffer.hits"] > first["counters"]["buffer.hits"]


def _gen0_collections(tracer=None, metrics=None) -> int:
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    simulate("page-force-rda", tracer=tracer, metrics=metrics,
             transactions=600)
    return gc.get_stats()[0]["collections"] - before


def test_observing_adds_almost_no_garbage_collections(tmp_path):
    """An event is a tuple of atoms, not a dict plus a span object: a
    seeded run observed through a JSONL sink and a registry triggers at
    most 3 more young-generation collections than the same run bare
    (the counts are deterministic per seed: 21 bare and 22 observed
    here; 32 observed when every event was a dict)."""
    bare = _gen0_collections()
    tracer = Tracer(BufferedJsonlSink(tmp_path / "trace.jsonl"))
    observed = _gen0_collections(tracer, MetricsRegistry())
    tracer.close()
    assert observed <= bare + 3, (bare, observed)
