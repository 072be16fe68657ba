"""A restart's two fixed-size passes, each one bulk operation.

The twin scan reads each disk's parity slots in one call
(``TwinParityArray.read_all_twins``), and ``crash()`` resets the buffer
pool's table instead of invalidating page by page.  Neither may change
what a restart does: on the five twin classes at K = 1 and K = 2 a
restart through the bulk scan gives the result, the per-disk reads, the
current-twin bitmap, the Dirty_Set and the per-arm disk time a scan
calling ``read_twins`` group by group gives.  A latent twin sector is
still repaired before the scan reads it, a failed twin disk still stops
the restart, and a crashed buffer pool starts cold.
"""

import pytest

from repro.db import Database, make_sharded, preset
from repro.errors import (AddressError, DiskFailedError,
                          LatentSectorError)
from repro.obs import MetricsRegistry
from repro.sim import Simulator, TimedObserver, WorkloadSpec
from repro.storage import ParityHeader, SimulatedDisk, make_page

TWIN_PRESETS = ["page-force-rda", "page-noforce-rda", "record-force-rda",
                "record-noforce-rda", "record-noforce-rda-redo"]


def _shards(db) -> list:
    return list(db.shards) if hasattr(db, "shards") else [db]


def _write(db, txn: int, page: int, version: bytes) -> None:
    if db.config.record_logging:
        db.update_record(txn, page, 0, version)
    else:
        db.write_page(txn, page, make_page(version))


def _crashed(name: str, shards: int):
    """Committed work in most groups, a checkpoint under ¬FORCE, more
    commits, then a loser whose pages are stolen, and a crash."""
    config = preset(name, group_size=4, num_groups=12 * shards,
                    buffer_capacity=16)
    db = (Database(config) if shards == 1 else
          make_sharded(config, shards=shards, flush_horizon=2,
                       workers=False))
    if db.config.record_logging:
        Simulator(db, WorkloadSpec()).seed_records()
    pages = db.num_data_pages
    for n in range(12):
        txn = db.begin()
        _write(db, txn, (5 * n) % pages, b"w%d" % n)
        _write(db, txn, (5 * n + 2) % pages, b"x%d" % n)
        db.commit(txn)
        if n == 5 and not db.config.force:
            db.checkpoint()
    loser = db.begin()
    for page in (1, 6, 11):
        _write(db, loser, page, b"lost")
    for shard in _shards(db):
        shard.buffer.flush_all_dirty()
    db.crash()
    return db


def _group_by_group(array):
    """The scan's reads as ``read_twins`` makes them, one group at a
    time."""
    pairs = [array.read_twins(group)
             for group in range(array.geometry.num_groups)]
    return [first for first, _ in pairs], [second for _, second in pairs]


def _restart(name: str, shards: int, bulk: bool) -> dict:
    db = _crashed(name, shards)
    scanned = []
    observers = []
    for shard in _shards(db):
        array, rda = shard.array, shard.rda
        if not bulk:
            array.read_all_twins = (
                lambda array=array: _group_by_group(array))
        scan = rda.crash_scan

        def crash_scan(*args, rda=rda, scan=scan, **kwargs):
            result = scan(*args, **kwargs)
            groups = range(rda.array.geometry.num_groups)
            scanned.append(([rda.current_twin(g) for g in groups],
                            rda.dirty_set.entries()))
            return result

        rda.crash_scan = crash_scan
        observers.append(TimedObserver.attach(shard))
    stats = db.recover()

    def array_disks(counts: dict) -> dict:
        # a log device's id is its place among every log ever built
        return {disk: n for disk, n in counts.items() if disk >= 0}

    return {
        "recover": stats,
        "per_disk_reads": [array_disks(shard.stats.per_disk_reads)
                           for shard in _shards(db)],
        "per_disk_writes": [array_disks(shard.stats.per_disk_writes)
                            for shard in _shards(db)],
        "scanned": scanned,
        "arms": [{disk: (timer.busy_ms, timer.seeks, timer.operations)
                  for disk, timer in observer.timers.items()}
                 for observer in observers],
    }


@pytest.mark.parametrize("shards", [1, 2], ids=["k1", "k2"])
@pytest.mark.parametrize("name", TWIN_PRESETS)
def test_the_bulk_scan_restarts_as_the_group_by_group_one(name, shards):
    bulk = _restart(name, shards, bulk=True)
    one_by_one = _restart(name, shards, bulk=False)
    assert bulk == one_by_one
    if not bulk["recover"]["losers"]:
        # REDO-only: the write-behind gate kept the loser's pages home
        assert name.endswith("-redo")
    else:
        # a stolen page to undo, so the scan rebuilt a Dirty_Set
        assert any(entries for _, entries in bulk["scanned"])


def test_a_latent_twin_sector_is_repaired_before_the_scan_reads_it():
    db = _crashed("page-noforce-rda", 1)
    addr = db.array.geometry.parity_addresses(3)[0]
    disk = db.array.disks[addr.disk]
    disk.corrupt(addr.slot)
    assert disk.bad_sectors() == [addr.slot]
    stats = db.recover()
    assert stats["sectors_repaired"] == 1
    assert disk.bad_sectors() == []
    assert db.verify_parity() == []


def test_a_failed_twin_disk_stops_the_restart():
    db = _crashed("page-force-rda", 1)
    twin_disk = db.array.geometry.parity_addresses(0)[1].disk
    db.array.disks[twin_disk].fail()
    with pytest.raises(DiskFailedError):
        db.recover()


# -- the bulk read, at one disk ---------------------------------------------


def _written_disk() -> SimulatedDisk:
    disk = SimulatedDisk(3, 16)
    for slot in (1, 4, 9):
        disk.write(slot, make_page(b"s%d" % slot),
                   ParityHeader(timestamp=slot))
    return disk


def test_a_bulk_read_is_one_read_with_header_per_slot():
    bulk, single = _written_disk(), _written_disk()
    seen = {id(bulk): [], id(single): []}
    for disk in (bulk, single):
        disk.on_access = (lambda disk_id, slot, kind, log=seen[id(disk)]:
                          log.append((disk_id, slot, kind)))
    slots = [1, 4, 9, 12]
    assert bulk.read_many_with_headers(slots) == [
        single.read_with_header(slot) for slot in slots]
    assert seen[id(bulk)] == seen[id(single)] == [
        (3, slot, "read") for slot in slots]
    for disk in (bulk, single):
        assert (disk.stats.reads, disk.stats.per_disk_reads) == (4, {3: 4})
    bulk.on_access = None
    assert bulk.read_many_with_headers([4])[0][1] == ParityHeader(
        timestamp=4)
    assert bulk.stats.per_disk_reads == {3: 5}


def test_a_bulk_read_checks_every_slot():
    disk = _written_disk()
    disk.corrupt(4)
    with pytest.raises(LatentSectorError):
        disk.read_many_with_headers([1, 4, 9])
    # the reads up to the bad sector are counted, as single reads would be
    assert disk.stats.reads == 2
    with pytest.raises(AddressError):
        disk.read_many_with_headers([1, 16])
    disk.fail()
    with pytest.raises(DiskFailedError):
        disk.read_many_with_headers([1])
    assert disk.stats.reads == 2


# -- a crashed buffer pool starts cold --------------------------------------


def test_a_crash_leaves_the_buffer_cold_and_its_series_monotonic():
    metrics = MetricsRegistry()
    db = Database(preset("page-noforce-rda", group_size=4, num_groups=10,
                         buffer_capacity=8), metrics=metrics)
    txn = db.begin()
    for page in range(6):
        db.write_page(txn, page, make_page(b"a"))
        db.read_page(txn, page)
    db.commit(txn)
    loser = db.begin()
    db.write_page(loser, 7, make_page(b"b"))
    series = ("buffer.hits", "buffer.misses", "buffer.evictions",
              "buffer.steals")
    before = [metrics.counter(name).value for name in series]
    db.crash()
    assert db.buffer.resident_pages() == [] == db.buffer.dirty_pages()
    assert db.buffer.flush_pages_of(loser) == []
    after = [metrics.counter(name).value for name in series]
    assert after == before
    db.recover()
    reader = db.begin()
    misses = db.buffer.stats.misses
    for page in range(8):
        db.read_page(reader, page)
        assert db.buffer.stats.misses == misses + page + 1
    assert all(metrics.counter(name).value >= old
               for name, old in zip(series, after))
    assert db.buffer.modifiers_of(7) == frozenset()
