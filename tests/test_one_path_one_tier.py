"""The design this repo settled on, locked: one write-back path, one
production kernel tier, and no switch that selects another.

Each assertion names something that used to exist (a ``batched`` config
field, ``REPRO_HOTPATH`` / ``REPRO_KERNEL_TIER`` / ``REPRO_NO_NUMPY``,
an optional numpy tier, the plan/execute commit-window machinery beside
the per-page write-back); bringing any of them back is a design change
that has to argue with docs/performance.md first.
"""

import dataclasses
import importlib.util
import inspect
import pathlib
import re
import sys

import pytest

import repro
from repro.buffer import BufferPool
from repro.db import DBConfig, preset
from repro.storage import kernels

SRC = pathlib.Path(repro.__file__).resolve().parent
FORBIDDEN = re.compile(
    r"REPRO_HOTPATH|REPRO_KERNEL_TIER|REPRO_NO_NUMPY|numpy", re.IGNORECASE)
# the window machinery: a window is a loop over the per-page write-back
WINDOW_MACHINERY = re.compile(
    r"^\s*(?:def|class)\s+(small_write_batch|BatchTwinWrite|write_batch|"
    r"write_back_run|BatchWriteItem|any_failed)\b", re.MULTILINE)


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
    with pytest.raises(TypeError):
        preset("page-force-rda", batched=False)
    assert len(dataclasses.fields(DBConfig)) == 14


def test_src_names_no_selector_and_no_numpy():
    offenders = [str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                 if FORBIDDEN.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_src_defines_no_window_machinery():
    defined = {str(path.relative_to(SRC)): WINDOW_MACHINERY.findall(
        path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")}
    assert {path: names for path, names in defined.items() if names} == {}


def test_buffer_pool_takes_one_writeback_callable():
    params = inspect.signature(BufferPool.__init__).parameters
    assert [name for name in params if "writeback" in name] == \
        ["writeback_fn"]
