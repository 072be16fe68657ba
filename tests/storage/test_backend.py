"""The StorageBackend protocol and the table of built-in arrays.

Covers the table's names and error paths, the default backend a
DBConfig without one runs on, structural (runtime) protocol conformance
of every built-in array, and the rda-needs-twins guard, for a bare
array and for a Database built from a preset.
"""

import pytest

from repro.db import Database, preset
from repro.db.config import DBConfig
from repro.errors import ModelError
from repro.storage import (SingleParityArray, StorageBackend, TwinBackend,
                           TwinParityArray, backend_names, create_backend)
from repro.storage.backend import BACKENDS
from repro.storage.geometry import Placement
from repro.storage.raid6 import Raid6Array


def _build(name):
    _, twin, _ = BACKENDS[name]
    return create_backend(DBConfig(rda=twin, backend=name, group_size=4,
                                   num_groups=4))


class TestRegistry:
    def test_builtins_registered(self):
        assert backend_names() == ["parity-striped", "raid6", "single",
                                   "twin", "twin-parity-striped"]

    def test_spec_lookup(self):
        factory, twin, description = BACKENDS["raid6"]
        assert callable(factory)
        assert twin is False
        assert description

    def test_unknown_name(self):
        with pytest.raises(ModelError, match="unknown storage backend"):
            create_backend(DBConfig(backend="no-such-layout"))

    def test_twin_flags_match_capability(self):
        for name, (_, twin, description) in BACKENDS.items():
            assert description, name
            assert _build(name).supports_twins is twin, name


class TestResolution:
    def test_explicit_backend_wins(self):
        array = create_backend(DBConfig(rda=True,
                                        backend="twin-parity-striped"))
        assert type(array) is TwinParityArray
        assert array.geometry.placement is Placement.SEQUENTIAL

    def test_legacy_default_rda(self):
        array = create_backend(DBConfig(rda=True))
        assert type(array) is TwinParityArray
        assert array.geometry.placement is Placement.STRIPED

    def test_legacy_default_wal(self):
        assert type(create_backend(DBConfig(rda=False))) is \
            SingleParityArray

    def test_rda_over_twinless_backend_rejected(self):
        with pytest.raises(ModelError, match="no parity twins"):
            create_backend(DBConfig(rda=True, backend="raid6"))

    def test_rda_preset_rejects_twinless_backend(self):
        with pytest.raises(ModelError, match="no parity twins"):
            Database(preset("page-force-rda", backend="parity-striped"))

    def test_create_builds_expected_classes(self):
        cases = {"twin": TwinParityArray, "single": SingleParityArray,
                 "raid6": Raid6Array}
        for name, cls in cases.items():
            array = create_backend(
                DBConfig(rda=(name == "twin"), backend=name,
                         group_size=4, num_groups=4))
            assert type(array) is cls


class TestProtocolConformance:
    """Structural conformance, checked at runtime for every built-in
    backend (mypy checks the same statically via the asserts in
    repro/storage/backend.py)."""

    @pytest.mark.parametrize("name", ["parity-striped", "raid6", "single",
                                      "twin", "twin-parity-striped"])
    def test_satisfies_storage_backend(self, name):
        array = _build(name)
        assert isinstance(array, StorageBackend)
        if BACKENDS[name][1]:
            assert isinstance(array, TwinBackend)
