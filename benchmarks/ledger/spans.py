"""Outside-in layer attribution: spans, counting hooks, call counts.

Nothing under ``src/`` knows about this file.  A traced run installs
shims — instance attributes that shadow the public methods of each
layer object, ``SimulatedDisk.on_access`` (through ``TimedObserver``), and a
counting stand-in for
the kernel tier ``get_kernel()`` returns — and removes them when the
run ends.  Every shimmed call records one span
``(layer, name, start_ns, end_ns, parent, txn)`` into a preallocated
list; a layer's self time is its spans' durations minus the part their
child spans cover.

What the shims cannot see: calls a layer makes on a bound method it
captured before the shims went in (the ACC checkpointer's
``flush_all_dirty``), private methods, ``MetricsRegistry`` series
(slotted objects created inside the engine's constructors) and anything
inside a worker process.  That time stays in the caller's self time.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

from repro.sim.timed import TimedObserver
from repro.storage import kernels

from .metrics import LAYERS

RESTART_ROOTS = ("crash", "recover")
"""Facade calls whose whole subtree is restart work."""

TXN_CALLS = frozenset({
    "read_page", "write_page", "read_record", "update_record",
    "insert_record", "delete_record", "commit", "abort", "grants_for"})
"""Facade calls whose first argument is the transaction they serve."""

# source file (relative to the repro package, or a stdlib package the
# layer drives) -> layer, for the call-count pass
_FILE_LAYERS = (
    ("repro/db/database.py", "db.database"),
    ("repro/db/sharded.py", "db.database"),
    ("repro/db/slotted_page.py", "db.database"),
    ("repro/txn/", "txn.locks"),
    ("repro/buffer/", "buffer"),
    ("repro/db/policy.py", "db.policy"),
    ("repro/core/", "core.rda"),
    ("repro/storage/kernels.py", "storage.kernels"),
    ("repro/storage/gf256.py", "storage.kernels"),
    ("repro/storage/disk.py", "storage.disk"),
    ("repro/storage/iostats.py", "storage.disk"),
    ("repro/storage/", "storage.twin_array"),
    ("repro/wal/group_commit.py", "wal.group_commit"),
    ("repro/wal/", "wal.log"),
    ("repro/db/recovery.py", "db.recovery"),
    ("repro/db/workers.py", "db.workers"),
    ("multiprocessing/", "db.workers"),
    ("repro/obs/", "obs.tracer"),
    ("json/", "obs.tracer"),
)
DRIVER = "ledger.driver"    # this package: the load generator's own calls
OTHER = "other"             # the rest of the standard library


def _public_methods(obj) -> list:
    """Names of the plain public methods ``obj``'s class defines."""
    cls = type(obj)
    return [name for name in dir(cls)
            if not name.startswith("_")
            and inspect.isfunction(inspect.getattr_static(cls, name))]


class SpanRecorder:
    """Records spans from shimmed calls; installs and removes the shims."""

    def __init__(self, capacity: int) -> None:
        self.spans: list = [None] * capacity
        self.count = 0
        self.txn = 0                # id of the transaction being served
        self.work: dict = {}        # (layer, name) -> summed work units
        self._stack = [-1]
        self._installed: list = []  # (object, attribute) pairs to delete
        self._kernel_tier = None
        self.disk_time = None       # TimedObserver on the array's disks

    # -- the shim --------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, root: bool = False,
              work=None):
        """``root``: a call the driver makes — it names the transaction
        the spans below it serve (0 for maintenance)."""
        rec = self
        stack = self._stack
        spans = self.spans
        clock = perf_counter_ns
        key = (layer, name)
        serves_txn = root and name in TXN_CALLS

        def shim(*args, **kwargs):
            if root:
                rec.txn = args[0] if serves_txn else 0
            if work is not None:
                rec.work[key] = rec.work.get(key, 0) + work(*args)
            index = rec.count
            rec.count = index + 1
            if index >= len(spans):
                spans.extend([None] * len(spans))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if root and name == "begin":
                    rec.txn = result
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, name, start, end, stack[-1], rec.txn)

        return shim

    def shim(self, obj, layer: str, root: bool = False,
             work: dict | None = None) -> None:
        """Shadow every public method of ``obj`` with a recording shim.
        ``work`` maps a method name to a function of its arguments that
        returns the units of work the call carries."""
        if obj is None:
            return
        work = work or {}
        for name in _public_methods(obj):
            if name in vars(obj):
                continue        # already shimmed (shared strategy object)
            setattr(obj, name, self._wrap(getattr(obj, name), layer, name,
                                          root, work.get(name)))
            self._installed.append((obj, name))

    # -- installation ----------------------------------------------------------

    def install(self, engine) -> None:
        """Shim every layer object reachable from the engine."""
        db = engine.db
        self.shim(db, "db.database", root=True)
        self.shim(db.checkpointer, "db.database", root=True)
        self.shim(getattr(db, "coordinator", None), "wal.group_commit")
        self.shim(getattr(db, "commit_log", None), "wal.log")
        supervisor = getattr(db, "supervisor", None)
        if supervisor is not None:
            # worker processes: only the parent side can be reached
            self.shim(supervisor, "db.workers")
            for handle, proxy in zip(supervisor.handles, db.shards):
                self.shim(handle, "db.workers")
                self.shim(proxy, "db.workers")
        else:
            self._install_engine(db)
        if engine.tracer is not None:
            self.shim(engine.tracer, "obs.tracer")
            self.shim(engine.tracer.sink, "obs.tracer")

    def _install_engine(self, db) -> None:
        self.shim(db.locks, "txn.locks")
        lose_memory = db.crash

        def crash():
            lose_memory()
            self.shim(db.locks, "txn.locks")    # crash() builds a new table
        db.crash = crash
        self._installed.append((db, "crash"))
        self.shim(db.buffer, "buffer")
        policy = db.policy
        self.shim(policy, "db.policy", work={
            "writeback_batch": lambda db_, entries: len(entries)})
        for part in (policy.logging, policy.discipline, policy.protection):
            self.shim(part, "db.policy")
        self.shim(db.rda, "core.rda")
        self.shim(db.array, "storage.twin_array", work={
            "small_write": lambda *args: 1,
            "small_write_batch": lambda ops, *rest: len(ops)})
        self.shim(db.undo_log, "wal.log")
        if db.redo_log is not db.undo_log:
            self.shim(db.redo_log, "wal.log")
        self.shim(db.recovery, "db.recovery")
        for disk in db.array.disks:
            self.shim(disk, "storage.disk")
        self.disk_time = TimedObserver.attach(db)   # DiskTimingSpec per arm
        self._install_kernel()

    def _install_kernel(self) -> None:
        """Register a stand-in for the active kernel tier whose six
        operations record spans and the bytes they are handed."""
        real = kernels.get_kernel()
        sizes = {
            "xor": lambda a, b: len(a) + len(b),
            "xor_blocks": lambda a, b: len(a) + len(b),
            "xor_accumulate": lambda pages, size: len(pages) * size,
            "xor_inplace": lambda accumulator, page: 2 * len(page),
            "gf_scale": lambda coefficient, page: len(page),
            "gf_scale_accumulate": lambda pairs, size: len(pairs) * size,
        }
        CountingKernel = type("CountingKernel", (), {
            "name": real.name,
            **{op: staticmethod(self._wrap(getattr(real, op),
                                           "storage.kernels", op, work=size))
               for op, size in sizes.items()}})
        self._kernel_tier = real.name
        kernels.KERNELS["ledger-counting"] = CountingKernel
        kernels.set_kernel("ledger-counting")

    def remove(self) -> None:
        """Take every shim back out."""
        for obj, name in self._installed:
            if name in vars(obj):
                delattr(obj, name)
        self._installed.clear()
        if self.disk_time is not None:
            self.disk_time.detach()
        if self._kernel_tier is not None:
            kernels.set_kernel(self._kernel_tier)
            del kernels.KERNELS["ledger-counting"]
            self._kernel_tier = None

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer self time, whole run and inside restarts, plus
        the time and count of every (layer, method) pair."""
        spans, count = self.spans, self.count
        child = [0] * count
        in_restart = [False] * count
        for index in range(count):
            layer, name, start, end, parent, _txn = spans[index]
            if parent >= 0:
                child[parent] += end - start
                in_restart[index] = in_restart[parent]
            else:
                in_restart[index] = name in RESTART_ROOTS
        self_ns = dict.fromkeys(LAYERS, 0)
        restart_ns = dict.fromkeys(LAYERS, 0)
        named_ns: dict = {}
        named_counts: dict = {}
        root_ns = 0
        for index in range(count):
            layer, name, start, end, parent, _txn = spans[index]
            own = end - start - child[index]
            self_ns[layer] += own
            if in_restart[index]:
                restart_ns[layer] += own
            if parent < 0:
                root_ns += end - start
            key = (layer, name)
            named_ns[key] = named_ns.get(key, 0) + end - start
            named_counts[key] = named_counts.get(key, 0) + 1
        return {"self_ns": self_ns, "restart_self_ns": restart_ns,
                "named_ns": named_ns,
                "named_counts": named_counts, "root_ns": root_ns,
                "spans": count}

    def reads_under_writes(self) -> int:
        """Disk reads issued below a twin-array small write."""
        spans, count = self.spans, self.count
        under = [False] * count
        reads = 0
        for index in range(count):
            layer, name, _start, _end, parent, _txn = spans[index]
            inside = (parent >= 0 and under[parent]) or (
                layer == "storage.twin_array"
                and name in ("small_write", "small_write_batch"))
            under[index] = inside
            # read_with_header delegates to read: count the leaf only
            if inside and layer == "storage.disk" and name == "read":
                reads += 1
        return reads

    def write_jsonl(self, path) -> None:
        """One span per line, in the order the spans were opened."""
        with open(path, "w", encoding="ascii") as handle:
            write = handle.write
            for index in range(self.count):
                layer, name, start, end, parent, txn = self.spans[index]
                write(f'{{"i":{index},"layer":"{layer}","name":"{name}",'
                      f'"start_ns":{start},"end_ns":{end},'
                      f'"parent":{parent},"txn":{txn}}}\n')


def layer_of_file(filename: str) -> str:
    """The layer a source file's calls are charged to."""
    filename = filename.replace("\\", "/")
    for fragment, layer in _FILE_LAYERS:
        if fragment in filename:
            return layer
    return DRIVER if "benchmarks/ledger/" in filename else OTHER


def count_calls(run) -> dict:
    """Run ``run()`` under ``sys.setprofile`` and count every Python and
    C call by the layer of the code that makes or is the call: a Python
    call is charged to the callee's file, a C call to its caller's."""
    counts: dict = {}
    layer_of_code: dict = {}

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            code = frame.f_code
            layer = layer_of_code.get(code)
            if layer is None:
                layer = layer_of_code[code] = layer_of_file(code.co_filename)
            counts[layer] = counts.get(layer, 0) + 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return counts
