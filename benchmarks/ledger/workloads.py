"""The six named workloads: engine configuration, load and size.

Each workload stresses a different layer; ``why`` says which, and is
the sentence ``BENCHMARK.json`` and the README carry.  Pure data: the
engines are built in :mod:`.engines`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scripts import BLOCK, LoadSpec

GROUP_SIZE = 5          # N, data pages per parity group, on every workload
CLIENTS = 4             # P, closed-loop clients multiplexed in one thread
SEGMENT = BLOCK         # transactions per segment (drain + trim boundary)
WARMUP_SEGMENTS = 4     # 500 untimed transactions before the clock starts
CRASH_AT = 100          # finished transactions into a segment at a crash
DEFAULT_SEED = 7

UPDATE_MIX = dict(pages_per_txn=6, update_txn_fraction=0.9,
                  update_probability=0.9, abort_probability=0.02)


@dataclass(frozen=True)
class Workload:
    """One named workload: engine configuration + load + size."""

    name: str
    why: str
    preset: str
    num_groups: int
    buffer_capacity: int
    load: LoadSpec
    txns: int                               # timed started txns (fixed mode)
    checkpoint_interval: float | None = None
    crash_at: int | None = None             # crash once per segment, after
                                            # this many of it finished
    shards: int = 0                         # >0: worker-process shards
    flush_horizon: int = 1
    observed: bool = False                  # live tracer + metrics registry

    @property
    def record_mode(self) -> bool:
        return self.preset.startswith("record")

    @property
    def num_pages(self) -> int:
        return GROUP_SIZE * self.num_groups


WORKLOADS = {w.name: w for w in (
    Workload(
        name="force_update",
        why=("The paper's headline cell (page-force-rda, Fig. 9), working "
             "set mostly resident: the commit-window flush policy -> rda -> "
             "twin_array -> kernels -> disk and the log force do the work; "
             "eviction idles."),
        preset="page-force-rda", num_groups=100, buffer_capacity=256,
        load=LoadSpec(skew=0.6, **UPDATE_MIX), txns=20_000),
    Workload(
        name="steal_pressure",
        why=("Same 500 pages, cache 30x too small (B=16, page-noforce-rda): "
             "buffer replacement, per-page steals and ACC checkpoints "
             "dominate; commit is log-only, so a batching gain predicts no "
             "change here."),
        preset="page-noforce-rda", num_groups=100, buffer_capacity=16,
        checkpoint_interval=400,
        load=LoadSpec(**UPDATE_MIX), txns=16_000),
    Workload(
        name="read_mostly",
        why=("The paper's high-retrieval mix (s=40, f_u=.1) on 2000 record "
             "pages that all fit: facade, lock manager, get_page and "
             "slotted-page parsing carry the reads while the write path "
             "idles."),
        preset="record-noforce-rda", num_groups=400, buffer_capacity=2000,
        checkpoint_interval=4000,
        load=LoadSpec(pages_per_txn=40, update_txn_fraction=0.1,
                      update_probability=0.3, abort_probability=0.01),
        txns=12_000),
    Workload(
        name="crash_restart",
        why=("force_update mix on record-noforce-rda with a crash and "
             "restart in every 125-transaction segment, 4 in flight: "
             "recovery, log scan/decode, the RDA crash scan and redo "
             "dominate."),
        preset="record-noforce-rda", num_groups=100, buffer_capacity=64,
        checkpoint_interval=400, crash_at=CRASH_AT,
        load=LoadSpec(skew=0.6, **UPDATE_MIX), txns=10_000),
    Workload(
        name="sharded_workers",
        why=("page-force-rda split over 2 worker processes (K = nproc), "
             "uniform pages: pipe round trips in db.workers and the "
             "group-commit coordinator dominate."),
        preset="page-force-rda", num_groups=400, buffer_capacity=256,
        shards=2, flush_horizon=8,
        load=LoadSpec(**UPDATE_MIX), txns=8_000),
    Workload(
        name="force_update_obs",
        why=("force_update with a live Tracer(BufferedJsonlSink) and "
             "MetricsRegistry: obs.tracer does the extra work; a tracer "
             "optimisation must move this row and leave force_update flat."),
        preset="page-force-rda", num_groups=100, buffer_capacity=256,
        observed=True,
        load=LoadSpec(skew=0.6, **UPDATE_MIX), txns=15_000),
)}
