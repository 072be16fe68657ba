"""The design this repo settled on, locked: one write-back path, one
production kernel tier, no switch that selects another, and no layer on
the page path that only forwards.

Each assertion names something that used to exist (a ``batched`` config
field, ``REPRO_HOTPATH`` / ``REPRO_KERNEL_TIER`` / ``REPRO_NO_NUMPY``,
an optional numpy tier, the plan/execute commit-window machinery beside
the per-page write-back, a pluggable replacement policy, three
``DBConfig`` fields nobody set, forwarding methods between the Figure 3
question and the Dirty_Set); bringing any of them back is a design
change that has to argue with docs/performance.md first.  The frame
budgets at the end hold the page path, what a parity group and a
restored page add to a restart, and what a tracer and a registry may add
to a transaction, to the number of Python frames they enter today.
"""

import dataclasses
import importlib.util
import inspect
import json
import pathlib
import re
import sys

import pytest

import repro
from repro.buffer import BufferPool
from repro.core import RDAManager
from repro.db import Database, DBConfig, preset
from repro.obs import (BufferedJsonlSink, MetricsRegistry, Tracer,
                       load_trace)
from repro.storage import TwinState, kernels, make_page

SRC = pathlib.Path(repro.__file__).resolve().parent
FORBIDDEN = re.compile(
    r"REPRO_HOTPATH|REPRO_KERNEL_TIER|REPRO_NO_NUMPY|numpy", re.IGNORECASE)
# the window machinery: a window is a loop over the per-page write-back
WINDOW_MACHINERY = re.compile(
    r"^\s*(?:def|class)\s+(small_write_batch|BatchTwinWrite|write_batch|"
    r"write_back_run|BatchWriteItem|any_failed)\b", re.MULTILINE)
# the replacement plug-in and the methods that only forwarded or
# duplicated (PR 17)
FORWARDERS = re.compile(
    r"^\s*(?:class\s+(ClockPolicy|LRUPolicy|ReplacementPolicy)|"
    r"def\s+(make_policy|needs_undo_log|write_stolen_logged|_parse_prefix|"
    r"_evictable))\b", re.MULTILINE)


@pytest.mark.parametrize("numpy_importable", [True, False])
def test_tiers_do_not_depend_on_numpy(monkeypatch, numpy_importable):
    if not numpy_importable:
        # a None entry makes ``import numpy`` raise ImportError
        monkeypatch.setitem(sys.modules, "numpy", None)
    spec = importlib.util.spec_from_file_location("kernels_probe",
                                                  kernels.__file__)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert probe.available_tiers() == ("stdlib", "reference")
    assert probe.active_tier() == "stdlib"
    assert kernels.available_tiers() == ("stdlib", "reference")


def test_no_hot_path_switch_in_the_config():
    for option in ({"batched": False}, {"replacement": "clock"},
                   {"placement": "sequential"}, {"log_page_size": 4096}):
        with pytest.raises(TypeError):
            preset("page-force-rda", **option)
    assert len(dataclasses.fields(DBConfig)) == 11
    assert not hasattr(DBConfig, "resolved_backend")


def test_src_names_no_selector_and_no_numpy():
    offenders = [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                 if FORBIDDEN.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


def _defined(pattern) -> dict:
    defined = {str(path.relative_to(SRC)): pattern.findall(
        path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}
    return {path: names for path, names in defined.items() if names}


def test_src_defines_no_window_machinery():
    assert _defined(WINDOW_MACHINERY) == {}


def test_src_defines_no_replacement_plugin_and_no_forwarder():
    assert _defined(FORWARDERS) == {}
    assert not (SRC / "buffer" / "replacement.py").exists()
    assert "policy" not in inspect.signature(BufferPool.__init__).parameters
    assert "logged" not in inspect.signature(
        RDAManager.write_uncommitted).parameters


def test_buffer_pool_takes_one_writeback_callable():
    params = inspect.signature(BufferPool.__init__).parameters
    assert [name for name in params if "writeback" in name] == \
        ["writeback_fn"]


# -- the frame budget: layers that went stay gone --------------------------


def _src_frames(call, *args) -> int:
    """Python frames under ``src/repro`` that one call enters."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(str(SRC)):
            count += 1

    sys.setprofile(profiler)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return count


def _budget_db(num_groups: int = 20):
    return Database(preset("page-force-rda", group_size=5,
                           num_groups=num_groups, buffer_capacity=64))


def _commit_frames(pages: int) -> int:
    """A FORCE commit of ``pages`` pages, one per parity group, on an
    engine that has written those groups before (twin headers cached)."""
    db = _budget_db()
    for version in (b"warm", b"timed"):
        txn = db.begin()
        for i in range(pages):
            db.write_page(txn, i * db.config.group_size, make_page(version))
        if version == b"warm":
            db.commit(txn)
    return _src_frames(db.commit, txn)


def test_one_more_page_in_a_commit_window_costs_at_most_47_frames():
    # 49.5 before PR 17; deterministic: tracing off, no history.  Still
    # 43.5 with PR 23's page LSN on the twin header: the log's forced
    # LSN is a plain attribute and the vector is built inline (with a
    # property and a helper it read 45.5)
    assert (_commit_frames(8) - _commit_frames(4)) / 4 <= 47


def test_a_read_page_buffer_hit_costs_at_most_7_frames():
    db = _budget_db()
    txn = db.begin()
    db.read_page(txn, 3)
    assert _src_frames(db.read_page, txn, 3) <= 7       # 8 before PR 17


# -- what one more parity group may add to a restart (PR 19) ---------------


def _crashed_db(num_groups: int):
    """A loaded database, twenty committed one-page transactions, one
    per parity group, then a crash."""
    db = _budget_db(num_groups)
    db.load_pages({page: make_page(b"v0")
                   for page in range(db.num_data_pages)})
    for i in range(20):
        txn = db.begin()
        db.write_page(txn, i * db.config.group_size, make_page(bytes([i + 1])))
        db.commit(txn)
    db.crash()
    return db


def test_one_more_parity_group_costs_a_restart_at_most_22_frames():
    # 19 today, 38 before PR 19 (24 and 40 for a group never written,
    # whose twins are both OBSOLETE): the twin scan reads both twins
    # through one address lookup and picks the current one from the two
    # header states, the scrub XORs a stripe row without leaving its loop
    assert (_src_frames(_crashed_db(60).recover)
            - _src_frames(_crashed_db(20).recover)) / 40 <= 22


def test_the_restart_scrub_still_visits_every_clean_group():
    db = _crashed_db(60)
    last = db.array.geometry.num_groups - 1
    _, header = db.array.peek_twin(last, 0)
    assert header.state is TwinState.COMMITTED      # the current twin
    db.array.write_twin(last, 0, make_page(b"stale"), header)
    assert db.rda.find_parity_holes() == [last]
    assert db.recover()["parity_resynced"] == 1
    assert db.verify_parity() == []


# -- what one more restored page may add to a restart (PR 21) --------------


def _restore_frames(pages, on_disk=()) -> int:
    """Restart after one committed, unflushed ¬FORCE transaction that
    wrote ``pages`` and rewrote ``on_disk`` with the bytes the disk
    already holds: redo fills the cache, the restore writes back what
    differs."""
    db = Database(preset("page-noforce-rda", group_size=5, num_groups=20,
                         buffer_capacity=64))
    db.load_pages({page: make_page(b"v0")
                   for page in range(db.num_data_pages)})
    txn = db.begin()
    for page in pages:
        db.write_page(txn, page, make_page(b"w%d" % page))
    for page in on_disk:
        db.write_page(txn, page, make_page(b"v0"))
    db.commit(txn)
    db.crash()
    return _src_frames(db.recover)


def test_a_restored_page_in_an_open_group_costs_fewer_frames_than_a_new_group():
    # 13 and 37 today; 28 either way before PR 21, when every page paid
    # the _write_committed → protection → rda.write_committed →
    # small_write chain, two disk reads and two writes.  A page that
    # joins a group the restore already opened adds its base read (at
    # the disk arm; through ``array.read_page`` it would be 15), its
    # labelled write and nothing else; a page alone in its group pays
    # the group's chain, twin write and bookkeeping call by itself.
    # Every payload must differ from the ``v0`` the pages were loaded
    # with, or the page is dropped and takes its group's chain out of
    # the baseline.  PR 23 re-pinned the new group from 36, measured:
    # the one frame is ``geometry.group_pages``, the member list
    # ``write_group_committed`` stamps the group's page LSNs against in
    # one pass (a helper per page read 19 against 14 in an open group).
    # Naming the log's pages before the twin scan is free: the address
    # lookup it makes is the one the restore loop used to make.
    n = 5
    sparse = _restore_frames([g * n for g in range(4)])
    in_open_group = (_restore_frames([g * n + i for g in range(4)
                                      for i in range(3)]) - sparse) / 8
    in_new_group = (_restore_frames([g * n for g in range(12)])
                    - sparse) / 8
    assert in_open_group <= 14
    assert in_new_group <= 37
    assert in_open_group < in_new_group
    # a page the disk already holds costs its read and the comparison:
    # no write, no label, and alone in its group no group chain either
    dropped = (_restore_frames([g * n for g in range(4)],
                               on_disk=[g * n + 1 for g in range(4, 12)])
               - sparse) / 8
    assert dropped <= 9            # 8.1 today
    assert dropped < in_open_group


# -- what being observed may add (PR 18) -----------------------------------


def _observed_txn_frames(tmp_path, observed: bool) -> int:
    """One transaction reading and writing 6 pages, one per parity
    group, then committing, on an engine that has run it before."""
    tracer = metrics = None
    if observed:
        tracer = Tracer(BufferedJsonlSink(tmp_path / "trace.jsonl"))
        metrics = MetricsRegistry()
    db = Database(preset("page-force-rda", group_size=5, num_groups=20,
                         buffer_capacity=64), tracer=tracer, metrics=metrics)

    def transaction(version: bytes) -> None:
        txn = db.begin()
        for i in range(6):
            db.read_page(txn, i * db.config.group_size)
            db.write_page(txn, i * db.config.group_size, make_page(version))
        db.commit(txn)

    transaction(b"warm")
    return _src_frames(transaction, b"timed")


def test_being_observed_costs_a_transaction_at_most_50_frames(tmp_path):
    # 32 today; 94 before PR 18: counters pushed per page that
    # mirrored a layer's own, a gauge set per write, a histogram fed
    # through a TransferCounts, by-name lookups on every commit
    assert (_observed_txn_frames(tmp_path, True)
            - _observed_txn_frames(tmp_path, False)) <= 50


def test_emit_runs_no_json_frame(tmp_path):
    """Encoding happens at flush, a chunk at a time — never between an
    ``emit`` and its return."""
    json_dir = str(pathlib.Path(json.__file__).parent)
    in_json = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(json_dir):
            in_json.append(frame.f_code.co_name)

    with Tracer(BufferedJsonlSink(tmp_path / "trace.jsonl")) as tracer:
        sys.setprofile(profiler)
        try:
            tracer.emit("plain", page=3, note="text")
            with tracer.span("spanned", page=4):
                tracer.emit("inside")
        finally:
            sys.setprofile(None)
        assert tracer.sink.count == 3
        assert (tmp_path / "trace.jsonl").read_text() == ""
    assert in_json == []
    assert len(load_trace(tmp_path / "trace.jsonl")) == 3
