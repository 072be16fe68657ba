"""The trace and the registry are the measuring instrument: what they
report may not move when their cost does.

Each constant below is a sha256 computed **on the commit before PR 18**
(the last one that serialized every event on arrival and pushed every
series on the hot path) of a 600-transaction ``--crash-every 150
--buffer 24 --seed 5`` simulation driven through the CLI: the event
stream as written by :class:`~repro.obs.BufferedJsonlSink` — key order
included, only the wall-clock ``ts`` and ``attrs.dur_ms`` stripped —
and the ``--metrics-out`` snapshot (with ``--drift-check`` attached, so
the detector's gauges and verdict are pinned too).  K = 2 reads the
shards' registries through the ``metrics_snapshot`` op on both
transports.  A change to what is observed must re-pin these on purpose.

Re-pinned four times, on purpose.  PR 19 re-pinned the ``record-noforce-rda``
pair and nothing else.  The restart's restore loop hands each page the
bytes ``page_base`` already read, so its 124 ``array.small_write``
events read ``buffered: true, reads: 1, transfers: 3`` (were ``false``,
2, 4), the three ``restore`` phase spans and ``recovery.restart`` spans
carry that many fewer reads, ``array.small_write_transfers`` moves 124
observations from the 4 bucket to the 3 bucket, and the drift detector
gains its (silent) ``array.small_write[buffered=True,twins=1]`` gauge.
The other four configurations pass unchanged through the same PR's
decode table and twin scan: those moved nothing observable.

PR 21 re-pinned the ``record-noforce-rda`` and ``page-noforce-rda`` pairs
and nothing else: the restore is group-resident.  The three restarts'
restore writes (124 pages in 67 parity groups; 117 in 68 under page
logging) are 67 / 68 ``array.group_write`` events where they were 124 /
117 ``array.small_write`` events; the three ``restore`` phase spans and
``recovery.restart`` spans carry 2 × (pages − groups) = 114 / 98 fewer
transfers between them; ``array.small_write_transfers`` observes each
group's total once (sum 6862 → 6748, 5357 → 5259) and the drift detector
gains its silent ``array.group_write`` gauge (and, on the record
preset, loses PR 19's ``buffered=True`` one: the restore was its only
source).  Every event before the first ``db.crash`` is the one the
parent wrote.  ``page-force-rda`` restores nothing in these runs
(``pages: 0``) and passes unchanged, as do both K = 2 transports.

PR 22 re-pinned the same two pairs and nothing else: the restore
writes only the pages that differ from their base.  Of the 124 / 117
restored pages 74 / 70 already match the disk, so 28 / 32 groups are
not written at all (67 → 39 and 68 → 36 ``array.group_write`` events,
each now ``buffered_pages == pages``: every base is read before the
group body, one counted read a page under page logging, which keeps
none from redo); the three ``restore`` spans carry ``unchanged: 17, 17,
40`` / ``12, 17, 41`` after ``pages`` and 130 / 134 fewer transfers,
the ``recovery.restart`` spans the same; ``array.small_write_transfers``
loses the unwritten groups' observations (sum 6748 → 6618, 5259 → 5008).
Every event before the first ``db.crash`` is the one the parent wrote;
``page-force-rda`` and both K = 2 streams restore nothing, so no span of
theirs gains the attribute.

PR 23 re-pinned the same two pairs and nothing else: the scan's reads
are spent.  Redo skips the winners' records the current twin's header
vouches for — the three ``redo`` spans carry ``applied: 15, 36, 23``
and ``skipped: 26, 45, 93`` where they carried ``applied: 41, 81,
116`` (page logging: 25, 39, 23 and 12, 28, 87 for 37, 67, 110; each
pair sums to the parent's count) and, on the record preset, 74 fewer
base reads; the ``restore`` spans hold ``pages: 12, 21, 17`` for 29,
38, 57 and no ``unchanged`` (page logging 17, 25, 18 with ``unchanged:
2, 5, 6`` — steals whose writer committed later — for 27, 37, 53 with
12, 17, 41).  The same 39 / 36 groups are written with the same bytes,
each ``array.group_write`` event now carrying ``parity_in_hand`` after
``buffered_pages``: 1 and one read fewer on all 39 / on 34 (two groups
were rewound by parity undo first, which drops the twin the scan
kept).  ``recovery.restart`` spans: 125, 150, 167 → 97, 119, 113
transfers (137, 178, 175 → 115, 153, 131); ``array.small_write_transfers``
sums 6618 → 6579 and 5008 → 4974, its ``min`` 3 → 2.  Every event
before the first ``db.crash`` is the one the parent wrote, event counts
are equal, and ``page-force-rda`` and both K = 2 streams — which redo
nothing — are byte-identical.
Since then the same two pairs' event streams were re-pinned once more,
and nothing else, when restart analysis came to start at the last
checkpoint.  The three ``analysis``
phase spans carry the commits since the anchor — ``winners: 9, 15, 23``
for 120, 229, 341 (page logging: 7, 12, 23 for 117, 222, 335).  Each
checkpoint record now carries its transaction table (BOT LSNs and the
next transaction id), so log pages fill a few bytes earlier: a log
page write (two writes, one page on each duplex copy) moves between
neighbouring spans in 59 / 56 ``txn`` spans, 2 / 1 ``checkpoint`` spans
and, on page logging, 3 ``recovery.abort`` spans (``txn`` writes 11 627
→ 11 633 and 13 922 → 13 926 in all).  Event counts are equal, the
metrics snapshots byte-identical, and ``page-force-rda`` and both K = 2
streams — FORCE takes no checkpoint — are byte-identical.
"""

import hashlib
import json

import pytest

from repro.cli import main

K2_SNAPSHOT = "f19e7ad2032df864c36aa70af91bfdacbc1f0000c647f87f4c42be3400131f2e"
GOLDEN = {      # configuration -> (event stream, metrics snapshot)
    "page-force-rda": (
        "72e29ff42376bcbf76deac6447f5fcc51f8ea30427fbf3f232aa710bc6061637",
        "cd44874b58659078fbffc5db7c582907ccb60a3d69895232e1163f2ec6122c1d"),
    "record-noforce-rda": (
        "f5453e30d616524a3494226fa5411a383d83b2791dec8b858fbbb7f1684e68d6",
        "e467ddaed46451a147470b9215943d298cf2229dc8498063417cdcc7110a4cb2"),
    "page-noforce-rda": (
        "634cc9bd284c88ee64cc77c74e4bc6b3b782b3a9bc42fd48d185c8110f1d7ed4",
        "1815051e8a70f21c7b4638d4b94e113fd62b605a9de72f83958d6102243713a0"),
    # K = 2: the transports number worker spans differently, so each has
    # its own stream; the merged snapshot is the same one
    "--no-workers": (
        "65065eafba1657fb4ba985eccc21bed1ca94308ee106b0756eb83e3d12140b25",
        K2_SNAPSHOT),
    "--workers": (
        "869bae57d3653741159f8956731af8ef7549bd70412aba8d8411d711ef52de39",
        K2_SNAPSHOT),
}


def canonical_trace(path) -> str:
    """sha256 of the event stream minus its two wall-clock fields."""
    digest = hashlib.sha256()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            del event["ts"]
            event.get("attrs", {}).pop("dur_ms", None)
            digest.update(json.dumps(event, separators=(",", ":")).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def simulate(tmp_path, preset: str, *extra) -> tuple:
    trace = tmp_path / "trace.jsonl"
    snapshot = tmp_path / "metrics.json"
    code = main(["simulate", "--preset", preset, "--transactions", "600",
                 "--crash-every", "150", "--buffer", "24", "--seed", "5",
                 "--drift-check", "--trace-out", str(trace),
                 "--metrics-out", str(snapshot), *extra])
    assert code == 0
    return (canonical_trace(trace),
            hashlib.sha256(snapshot.read_bytes()).hexdigest())


@pytest.mark.parametrize("preset", ["page-force-rda", "record-noforce-rda",
                                    "page-noforce-rda"])
def test_trace_and_snapshot_match_the_parent_commit(tmp_path, capsys, preset):
    assert simulate(tmp_path, preset) == GOLDEN[preset]


@pytest.mark.parametrize("transport", ["--no-workers", "--workers"])
def test_sharded_trace_and_snapshot_match_on_both_transports(
        tmp_path, capsys, transport):
    assert simulate(tmp_path, "page-force-rda", "--shards", "2",
                    "--group-commit", "4", transport) == GOLDEN[transport]
