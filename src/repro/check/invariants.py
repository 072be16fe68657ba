"""Online invariant engine: the paper's safety rules, checked live.

Rules subscribe to *barriers* — protocol points where the paper's
correctness argument makes a claim about durable state:

``steal``
    A buffer-pool writeback of uncommitted data just finished
    (:meth:`RecoveryPolicy.writeback`, once per stolen page).
``twin_write``
    A twin-parity small write just landed (inside a steal; the
    Dirty_Set may not reflect it yet, so only stateless-against-the-
    Dirty_Set rules subscribe here).
``flip``
    A commit just flipped one group's current-parity bit
    (:meth:`RDAManager.commit_txn`).
``commit`` / ``abort``
    End of transaction, after all EOT processing.
``checkpoint``
    An ACC checkpoint completed.
``restart``
    Crash recovery finished (also invoked by ``faultplan`` after every
    surviving replayed restart).

Each rule also carries a deliberate **mutant**: a minimal corruption
of live state that the rule — and only the protocol property it
states — must catch.  Tests apply the mutant and assert the rule
fires; a rule whose mutant goes unnoticed is dead weight.

Checks use uncounted peeks (``peek_twin`` / ``peek_page`` /
``group_data_payloads``) so enabling the engine does not perturb the
transfer accounting the simulator reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..db.policy import apply_record_image
from ..sim.faultplan import Violation
from ..storage.page import TwinState, compute_parity, xor_pages
from ..storage.twin_array import select_current_twin
from ..wal import (CommitRecord, PageAfterImage, PageBeforeImage,
                   PageRedoEntry, RecordAfterEntry, RecordBeforeEntry,
                   RecordRedoEntry)

BARRIERS = ("steal", "twin_write", "flip", "commit", "abort",
            "checkpoint", "restart")


class MutantError(RuntimeError):
    """A mutant's precondition is not met (e.g. no dirty group yet)."""


class InvariantRule:
    """Base class: subclasses define ``name``, ``barriers``, ``check``
    and ``mutate``."""

    name = "abstract"
    barriers: Tuple[str, ...] = ()

    def check(self, db, barrier: str, ctx: dict) -> List[Violation]:
        raise NotImplementedError

    def mutate(self, db) -> str:
        """Corrupt live state such that ``check`` must report a
        violation at the next subscribed barrier.  Returns a
        description of the corruption.  Raises :class:`MutantError`
        when the database is not in a state the mutant can corrupt."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    @staticmethod
    def _first_dirty_entry(db):
        if db.rda is None or not db.rda.dirty_set.entries():
            raise MutantError("no dirty parity group to corrupt")
        return db.rda.dirty_set.entries()[0]


class TwinParityIdentityRule(InvariantRule):
    """Paper Section 4.2: for every dirty group, the working twin is
    the parity of the current data, and the twin XOR identity
    ``D_old = P_w XOR P_c XOR D_new`` reproduces the stolen page's
    before-image.  At a flip, the current-twin choice must equal pure
    timestamp ordering over valid twins (Section 4.1)."""

    name = "twin-parity-identity"
    barriers = ("steal", "twin_write", "flip", "commit", "checkpoint",
                "restart")

    def check(self, db, barrier: str, ctx: dict) -> List[Violation]:
        if db.rda is None:
            return []
        violations: List[Violation] = []
        for entry in db.rda.dirty_set.entries():
            p_w, h_w = db.array.peek_twin(entry.group, entry.working_twin)
            p_c, _h_c = db.array.peek_twin(entry.group,
                                           1 - entry.working_twin)
            data = db.array.group_data_payloads(entry.group)
            if p_w != compute_parity(data):
                violations.append(Violation(
                    "twin-parity-identity",
                    f"group {entry.group}: working twin is not the parity "
                    f"of the group data ({barrier})"))
            if h_w.state is not TwinState.WORKING \
                    or h_w.txn_id != entry.txn_id \
                    or h_w.dirty_page_index != entry.page_index:
                violations.append(Violation(
                    "twin-parity-identity",
                    f"group {entry.group}: working-twin header "
                    f"{h_w} disagrees with Dirty_Set entry {entry} "
                    f"({barrier})"))
            captured = db.txns.get(entry.txn_id).before_images.get(
                entry.page_id)
            if captured is not None:
                derived = xor_pages(p_w, p_c, data[entry.page_index])
                if derived != captured:
                    violations.append(Violation(
                        "twin-parity-identity",
                        f"group {entry.group}: P_w XOR P_c XOR D_new does "
                        f"not reproduce the before-image of page "
                        f"{entry.page_id} ({barrier})"))
        if barrier == "flip":
            violations.extend(self._check_flip(db, ctx))
        return violations

    def _check_flip(self, db, ctx: dict) -> List[Violation]:
        group, txn = ctx["group"], ctx["txn"]
        (p0, h0) = db.array.peek_twin(group, 0)
        (p1, h1) = db.array.peek_twin(group, 1)
        # only the two header owners can matter to the selection
        committed = {txn} | {h.txn_id for h in (h0, h1)
                             if db.txns.is_committed(h.txn_id)}
        expected = select_current_twin((h0, h1), committed)
        actual = db.rda.current_twin(group)
        violations: List[Violation] = []
        if actual != expected:
            violations.append(Violation(
                "twin-flip-order",
                f"group {group}: commit of txn {txn} flipped to twin "
                f"{actual}, but timestamp ordering selects {expected}"))
        current_payload = (p0, p1)[actual]
        if current_payload != compute_parity(
                db.array.group_data_payloads(group)):
            violations.append(Violation(
                "twin-flip-order",
                f"group {group}: current twin after flip is not the "
                f"parity of the group data"))
        return violations

    def mutate(self, db) -> str:
        entry = self._first_dirty_entry(db)
        committed = 1 - entry.working_twin
        payload, header = db.array.peek_twin(entry.group, committed)
        corrupted = bytes([payload[0] ^ 0xFF]) + payload[1:]
        db.array.write_twin(entry.group, committed, corrupted, header)
        return (f"XOR-corrupted committed twin of group {entry.group} "
                f"(breaks the before-image identity)")


class DirtySetBoundRule(InvariantRule):
    """Paper Figure 3: at most one unlogged uncommitted page per parity
    group — durably, at most one WORKING twin owned by an active
    transaction, and the Dirty_Set agrees with the on-disk headers."""

    name = "dirty-set-bound"
    barriers = ("steal", "commit", "abort", "checkpoint", "restart")

    def check(self, db, barrier: str, ctx: dict) -> List[Violation]:
        if db.rda is None:
            return []
        violations: List[Violation] = []
        active = {t.txn_id for t in db.txns.active_transactions()}
        geometry = db.array.geometry
        for group in range(geometry.num_groups):
            headers = [db.array.peek_twin(group, which)[1]
                       for which in (0, 1)]
            working = [which for which in (0, 1)
                       if headers[which].state is TwinState.WORKING
                       and headers[which].txn_id in active]
            if len(working) > 1:
                violations.append(Violation(
                    "dirty-set-bound",
                    f"group {group}: both twins WORKING for active "
                    f"transactions ({barrier})"))
            entry = db.rda.dirty_set.get(group)
            if entry is None:
                if working and barrier != "steal":
                    # mid-steal the twin lands before mark_dirty; at
                    # every other barrier an active WORKING twin must
                    # have a Dirty_Set entry
                    violations.append(Violation(
                        "dirty-set-bound",
                        f"group {group}: WORKING twin {working[0]} "
                        f"(txn {headers[working[0]].txn_id}) has no "
                        f"Dirty_Set entry ({barrier})"))
                continue
            header = headers[entry.working_twin]
            if header.state is not TwinState.WORKING \
                    or header.txn_id != entry.txn_id:
                violations.append(Violation(
                    "dirty-set-bound",
                    f"group {group}: Dirty_Set entry {entry} not backed "
                    f"by a WORKING twin header ({barrier})"))
        return violations

    def mutate(self, db) -> str:
        entry = self._first_dirty_entry(db)
        other = 1 - entry.working_twin
        _payload, header = db.array.peek_twin(entry.group, other)
        db.array.rewrite_twin_header(entry.group, other, header.with_(
            state=TwinState.WORKING, txn_id=entry.txn_id,
            dirty_page_index=entry.page_index))
        return (f"stamped both twins of group {entry.group} WORKING "
                f"for active txn {entry.txn_id}")


class WalBeforeDataRule(InvariantRule):
    """WAL before data: a logged steal's before-image records must be
    durable (appended and forced) before the data page overwrite; an
    unlogged steal must instead be covered by a Dirty_Set entry —
    undo information always exists *somewhere* before data lands."""

    name = "wal-before-data"
    barriers = ("steal",)

    def check(self, db, barrier: str, ctx: dict) -> List[Violation]:
        page = ctx["page"]
        txns = ctx["txns"]
        if not ctx["logged"]:
            entry = (db.rda.dirty_set.get(db.array.geometry.group_of(page))
                     if db.rda is not None else None)
            if entry is None or entry.page_id != page \
                    or entry.txn_id not in txns:
                return [Violation(
                    "wal-before-data",
                    f"unlogged steal of page {page} (txns {sorted(txns)}) "
                    f"left no Dirty_Set cover")]
            return []
        violations: List[Violation] = []
        # durable_lsn, not forced_lsn: a group-commit log with a
        # batched force pending drains at crash, covering its tail
        forced = db.undo_log.durable_lsn
        for txn_id in sorted(txns):
            pending = [e for e in db.txns.get(txn_id).pending_undo
                       if e.page_id == page]
            if pending:
                violations.append(Violation(
                    "wal-before-data",
                    f"logged steal of page {page}: txn {txn_id} still has "
                    f"{len(pending)} undo records deferred in memory"))
                continue
            records = [r for r in db.undo_log.records_of(txn_id)
                       if isinstance(r, (PageBeforeImage, RecordBeforeEntry))
                       and r.page_id == page]
            if not records:
                violations.append(Violation(
                    "wal-before-data",
                    f"logged steal of page {page}: no before-image record "
                    f"for txn {txn_id} in the undo log"))
            elif any(r.lsn > forced for r in records):
                violations.append(Violation(
                    "wal-before-data",
                    f"logged steal of page {page}: txn {txn_id} has undo "
                    f"records beyond the forced LSN ({forced})"))
        return violations

    def mutate(self, db) -> str:
        db.undo_log.force = lambda: None
        return "disabled undo_log.force (steals land before their undo)"


class LsnMonotonicityRule(InvariantRule):
    """Log sequence numbers strictly increase, the forced horizon never
    exceeds the tail, and the base LSN matches the first record —
    restart analysis depends on all three."""

    name = "lsn-monotonicity"
    barriers = ("commit", "checkpoint", "restart")

    def check(self, db, barrier: str, ctx: dict) -> List[Violation]:
        violations: List[Violation] = []
        logs = [db.undo_log]
        if db.redo_log is not db.undo_log:
            logs.append(db.redo_log)
        for log in logs:
            records = log.records()
            lsns = [record.lsn for record in records]
            if any(b <= a for a, b in zip(lsns, lsns[1:])):
                violations.append(Violation(
                    "lsn-monotonicity",
                    f"{log.name} log: LSNs not strictly increasing "
                    f"({barrier})"))
            if log.forced_lsn > log.last_lsn:
                violations.append(Violation(
                    "lsn-monotonicity",
                    f"{log.name} log: forced LSN {log.forced_lsn} beyond "
                    f"tail {log.last_lsn} ({barrier})"))
            if records and lsns[0] != log.base_lsn:
                violations.append(Violation(
                    "lsn-monotonicity",
                    f"{log.name} log: base LSN {log.base_lsn} disagrees "
                    f"with first record {lsns[0]} ({barrier})"))
        return violations

    def mutate(self, db) -> str:
        records = db.undo_log.records()
        if len(records) < 2:
            raise MutantError("undo log needs two records to reorder")
        records[-1].lsn = records[0].lsn
        return "rewound the last undo-log record's LSN"


class WriteBehindRule(InvariantRule):
    """REDO-only write-behind propagation: with no undo log, a page may
    reach disk only once the redo chain that rebuilds it is durable.
    Concretely: no steal ever logs undo records (the class has nowhere
    to put them), the *pure* class never steals at all (the hybrid's
    steals must ride twin-parity cover, which :class:`WalBeforeDataRule`
    checks), and every on-disk page-LSN marker sits at or below the
    redo log's durable horizon."""

    name = "write-behind"
    barriers = ("steal", "commit", "abort", "checkpoint", "restart")

    def check(self, db, barrier: str, ctx: dict) -> List[Violation]:
        if not db.config.redo_only:
            return []
        violations: List[Violation] = []
        if barrier == "steal":
            if ctx.get("logged"):
                violations.append(Violation(
                    "write-behind",
                    f"steal of page {ctx['page']} logged undo records "
                    f"under a REDO-only configuration"))
            if db.rda is None:
                violations.append(Violation(
                    "write-behind",
                    f"page {ctx['page']} stolen under the pure REDO-only "
                    f"class (uncommitted data must never reach disk)"))
        durable = db.redo_log.durable_lsn
        for page, lsn in sorted(db._durable_page_lsn.items()):
            if lsn > durable:
                violations.append(Violation(
                    "write-behind",
                    f"page {page} reached disk with chain head {lsn} "
                    f"beyond the durable redo horizon {durable} "
                    f"({barrier})"))
        return violations

    def mutate(self, db) -> str:
        if not db.config.redo_only:
            raise MutantError(
                "write-behind only governs REDO-only configurations")
        if not db._durable_page_lsn:
            raise MutantError("no committed page has reached disk yet")
        page = next(iter(db._durable_page_lsn))
        db._durable_page_lsn[page] = db.redo_log.durable_lsn + 1_000_000
        return (f"forged page {page}'s on-disk chain head beyond the "
                f"durable redo horizon")


class TwinPageLsnRule(InvariantRule):
    """The page LSNs on the twin headers (what restart's redo skips by)
    never claim more than the disk holds.

    * Every entry of every selectable twin (COMMITTED or WORKING) is
      below the redo log's next LSN and — while the record it names is
      still retained — at or below its durable LSN: a stamp is a forced
      LSN, and one the log could issue again would vouch for a record
      not written yet.
    * For the current twin, the on-disk page reflects every committed
      record for it at or below its entry: replaying the page's
      committed records over the disk image gives the same bytes with
      and without those records.  (Not "replaying them changes
      nothing": a stamp lags, so the disk may already be past a later
      record.)  Pages an active transaction has written are skipped —
      the disk may hold its uncommitted bytes.
    * The vector moves exactly with the parity: in a dirty group the
      working twin's entries, the dirty page's aside, are the committed
      twin's (or unknown, after a media rebuild) — a logged write into
      the group stamps both twins, as Figure 6 updates both.

    A twin write re-checks its own group (inside a restart the other
    groups may still hold a loser's logged steal); every other barrier
    checks them all."""

    name = "twin-page-lsn"
    barriers = ("twin_write", "steal", "flip", "abort", "checkpoint",
                "restart")

    def check(self, db, barrier: str, ctx: dict) -> List[Violation]:
        if db.rda is None:
            return []
        geometry = db.array.geometry
        if barrier == "twin_write":
            groups = [ctx["group"] if "group" in ctx
                      else geometry.group_of(ctx["page"])]
        else:
            groups = range(geometry.num_groups)
        log = db.redo_log
        next_lsn, base_lsn, durable = (log.next_lsn, log.base_lsn,
                                       log.durable_lsn)
        violations: List[Violation] = []
        stamped = {}        # page -> the current twin's entry for it
        for group in groups:
            headers = [db.array.peek_twin(group, which)[1]
                       for which in (0, 1)]
            for which, header in enumerate(headers):
                if header.state not in (TwinState.COMMITTED,
                                        TwinState.WORKING):
                    continue
                for lsn in header.page_lsns:
                    if lsn >= next_lsn or (lsn >= base_lsn
                                           and lsn > durable):
                        violations.append(Violation(
                            "twin-page-lsn",
                            f"group {group}: twin {which} carries page "
                            f"LSN {lsn}, beyond the redo log's durable "
                            f"LSN {durable} / next LSN {next_lsn} "
                            f"({barrier})"))
            current = headers[db.rda.current_twin(group)].page_lsns
            if current:
                stamped.update(
                    (page, lsn) for page, lsn
                    in zip(geometry.group_pages(group), current) if lsn)
            entry = db.rda.dirty_set.get(group)
            if entry is not None:
                size = geometry.group_size
                working = headers[entry.working_twin].page_lsns \
                    or (0,) * size
                committed = headers[1 - entry.working_twin].page_lsns \
                    or (0,) * size
                for index in range(size):
                    if index != entry.page_index and working[index] \
                            not in (0, committed[index]):
                        violations.append(Violation(
                            "twin-page-lsn",
                            f"group {group}: the twins disagree on page "
                            f"index {index} ({working[index]} working, "
                            f"{committed[index]} committed) though only "
                            f"index {entry.page_index} is dirty "
                            f"({barrier})"))
        violations.extend(self._check_contents(db, barrier, stamped))
        return violations

    @staticmethod
    def _check_contents(db, barrier: str, stamped: dict) -> List[Violation]:
        if not stamped:
            return []
        uncommitted = set()
        for txn in db.txns.active_transactions():
            uncommitted |= txn.pages_written
        log = db.redo_log
        committed = {r.txn_id for r in log.scan(CommitRecord)}
        history: Dict[int, list] = {}
        for record in log.records():
            if record.txn_id in committed and record.page_id in stamped \
                    and isinstance(record, (PageAfterImage, PageRedoEntry,
                                            RecordAfterEntry,
                                            RecordRedoEntry)):
                history.setdefault(record.page_id, []).append(record)

        def replay(image: bytes, records: list) -> bytes:
            for record in records:
                if isinstance(record, (PageAfterImage, PageRedoEntry)):
                    image = record.image
                else:
                    image = apply_record_image(image, record.slot,
                                               record.image)
            return image

        violations: List[Violation] = []
        for page, records in sorted(history.items()):
            lsn = stamped[page]
            newer = [r for r in records if r.lsn > lsn]
            if page in uncommitted or len(newer) == len(records):
                continue
            on_disk = db.array.peek_page(page)
            if replay(on_disk, records) != replay(on_disk, newer):
                violations.append(Violation(
                    "twin-page-lsn",
                    f"page {page}: the current twin vouches for LSN {lsn} "
                    f"but the disk lacks a committed record at or below "
                    f"it ({barrier})"))
        return violations

    def mutate(self, db) -> str:
        """An entry pushed past the durable LSN."""
        if db.rda is None:
            raise MutantError("no parity twins to stamp")
        group = 0
        which = db.rda.current_twin(group)
        _payload, header = db.array.peek_twin(group, which)
        forged = db.redo_log.durable_lsn + 1_000_000
        db.array.rewrite_twin_header(group, which, header.with_(
            page_lsns=(forged,) * db.array.geometry.group_size))
        return (f"stamped group {group}'s current twin with page LSN "
                f"{forged}, beyond the durable redo horizon")

    def mutate_one_sided_stamp(self, db) -> str:
        """What a logged write into a dirty group would leave had it
        stamped only one of the two twins it updates."""
        entry = self._first_dirty_entry(db)
        stamp = db.redo_log.durable_lsn
        _payload, header = db.array.peek_twin(entry.group,
                                              entry.working_twin)
        size = db.array.geometry.group_size
        lsns = list(header.page_lsns or (0,) * size)
        index = (entry.page_index + 1) % size
        if not stamp or lsns[index] == stamp:
            raise MutantError("no durable LSN to stamp one twin with")
        lsns[index] = stamp
        db.array.rewrite_twin_header(
            entry.group, entry.working_twin,
            header.with_(page_lsns=tuple(lsns)))
        return (f"stamped page index {index} of dirty group "
                f"{entry.group} on its working twin only")


def default_rules() -> List[InvariantRule]:
    return [TwinParityIdentityRule(), DirtySetBoundRule(),
            WalBeforeDataRule(), LsnMonotonicityRule(), WriteBehindRule(),
            TwinPageLsnRule()]


class InvariantEngine:
    """Dispatches barrier notifications to the subscribed rules and
    accumulates violations."""

    def __init__(self, db, rules: Optional[List[InvariantRule]] = None):
        self.db = db
        self.rules = default_rules() if rules is None else list(rules)
        self.violations: List[Violation] = []
        self.barrier_counts: Dict[str, int] = {}

    @classmethod
    def attach(cls, db, rules: Optional[List[InvariantRule]] = None
               ) -> "InvariantEngine":
        """Create an engine and wire it into the database's barrier
        seams (``db.invariants``, the RDA flip hook and the twin-array
        write hook).

        On a :class:`~repro.db.sharded.ShardedDatabase` one child
        engine is wired per shard; they share the returned engine's
        violation list and barrier counts, so ``clean`` and
        ``assert_clean`` judge the whole facade.
        """
        # worker-process facades wire an engine inside each worker and
        # return a facade-side collector over them (the shard engines
        # are not in this address space)
        remote = getattr(db, "attach_invariants", None)
        if remote is not None:
            return remote(rules)
        engine = cls(db, rules)
        db.invariants = engine
        shards = getattr(db, "shards", None)
        if shards is not None:
            for shard in shards:
                child = cls(shard, engine.rules)
                child.violations = engine.violations
                child.barrier_counts = engine.barrier_counts
                shard.invariants = child
                if shard.rda is not None:
                    shard.rda.barrier_hook = child.barrier
                    shard.array.barrier_hook = child.barrier
            return engine
        if db.rda is not None:
            db.rda.barrier_hook = engine.barrier
            db.array.barrier_hook = engine.barrier
        return engine

    @property
    def clean(self) -> bool:
        return not self.violations

    def barrier(self, name: str, **ctx) -> List[Violation]:
        """Evaluate every rule subscribed to ``name``; returns (and
        accumulates) the violations found."""
        if name not in BARRIERS:
            raise ValueError(f"unknown barrier {name!r}")
        self.barrier_counts[name] = self.barrier_counts.get(name, 0) + 1
        found: List[Violation] = []
        for rule in self.rules:
            if name in rule.barriers:
                found.extend(rule.check(self.db, name, ctx))
        self.violations.extend(found)
        return found

    def assert_clean(self) -> None:
        if self.violations:
            raise AssertionError(
                f"{len(self.violations)} invariant violations, first: "
                f"{self.violations[0]}")


def check_restart(db) -> List[Violation]:
    """One-shot restart-barrier evaluation on a freshly recovered
    database (used by the fault-injection harness after every
    surviving replayed restart).  A sharded facade is checked shard by
    shard."""
    if getattr(db, "shards", None) is not None:
        return [violation for found in db._gather("check_restart")
                for violation in found]
    engine = InvariantEngine(db)
    return engine.barrier("restart")
