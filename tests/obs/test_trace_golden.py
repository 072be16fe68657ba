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

Re-pinned three times, on purpose.  PR 19 re-pinned the ``record-noforce-rda``
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
        "ee1a7ae29479c88f064c9b2d95c916833f3e5d2d81cf184b6b2e9299775b0812",
        "11c1476f8041cf8edc524680b07bcd42bc20ec1618efa6c428a9129183fbaa62"),
    "page-noforce-rda": (
        "abc21db7d93c59e34d613c5df07a7e0b3a4e1c093dc89272a126545ee2f22436",
        "c58b6c242c19dcd3f1a38d6517c7974594049996aa2f8380bc9f36ef31c2b8b8"),
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
