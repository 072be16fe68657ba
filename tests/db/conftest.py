"""Fixtures shared by the restart tests."""

import gc
import weakref

import pytest

from repro.db import recovery


class RestartsMade(list):
    """Weak references to the :class:`~repro.db.recovery.Restart`
    values made so far, oldest first."""

    def all_gone(self) -> bool:
        """True when at least one was made and none is still alive."""
        gc.collect()
        return bool(self) and all(ref() is None for ref in self)


@pytest.fixture
def restarts(monkeypatch) -> RestartsMade:
    """Every restart value made while the test runs, held weakly: a
    test can look into the live one from a fault hook and check that
    none outlives the restart it belonged to."""
    made = RestartsMade()

    class Recorded(recovery.Restart):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(recovery, "Restart", Recorded)
    return made
