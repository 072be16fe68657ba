"""The one judge, ``repro.check.verify_database``, on small engine states.

The corruptions it catches are the catalog rules' mutants in
``tests/check/test_invariants.py``; these cases pin that a consistent
database, fresh, after work, with a live unlogged steal, and after a crash
and restart, draws no finding.
"""

import pytest

from repro.check import verify_database
from repro.db import Database, preset
from repro.storage import make_page


def make_db(name="page-force-rda", **kw):
    defaults = dict(group_size=4, num_groups=8, buffer_capacity=6)
    defaults.update(kw)
    db = Database(preset(name, **defaults))
    if db.config.record_logging:
        db.format_record_pages(range(db.num_data_pages))
    return db


class TestCleanStates:
    @pytest.mark.parametrize("name", ["page-force-rda", "page-force-log",
                                      "page-noforce-rda", "record-force-rda",
                                      "record-noforce-log"])
    def test_fresh_database_clean(self, name):
        assert verify_database(make_db(name)) == []

    def test_clean_after_work(self):
        db = make_db()
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.commit(t)
        loser = db.begin()
        db.write_page(loser, 1, make_page(b"y"))
        db.abort(loser)
        assert verify_database(db) == []

    def test_clean_with_active_dirty_group(self):
        db = make_db()
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.buffer.flush_pages_of(t)      # unlogged steal: group dirty
        assert verify_database(db) == []
        db.commit(t)
        assert verify_database(db) == []

    def test_clean_after_crash_recovery(self):
        db = make_db()
        t = db.begin()
        db.write_page(t, 0, make_page(b"x"))
        db.buffer.flush_pages_of(t)
        db.crash()
        db.recover()
        assert verify_database(db) == []
