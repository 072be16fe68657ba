"""Engines for the workloads, built through the public constructors
only, on the default kernel tier and the default (batched) hot path —
nothing is pinned."""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from repro.db import Database, WorkerShardedDatabase, preset
from repro.obs import BufferedJsonlSink, MetricsRegistry, Tracer

from .workloads import GROUP_SIZE, Workload


@dataclass
class Engine:
    """A built engine plus what must be released when the run ends."""

    db: object
    tracer: object = None
    trace_path: pathlib.Path | None = None

    def close(self) -> None:
        """Stop worker processes and close the trace file (idempotent)."""
        if self.tracer is not None:
            self.tracer.close()
        close = getattr(self.db, "close", None)
        if close is not None:
            close()


def build_engine(workload: Workload, out_dir: pathlib.Path) -> Engine:
    """Construct the workload's engine; ``out_dir`` receives the event
    trace of an ``observed`` workload."""
    config = preset(workload.preset, group_size=GROUP_SIZE,
                    num_groups=workload.num_groups,
                    buffer_capacity=workload.buffer_capacity,
                    checkpoint_interval=workload.checkpoint_interval)
    tracer = metrics = trace_path = None
    if workload.observed:
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"{workload.name}.events.jsonl"
        tracer = Tracer(BufferedJsonlSink(trace_path))
        metrics = MetricsRegistry()
    if workload.shards:
        db = WorkerShardedDatabase(config, shards=workload.shards,
                                   flush_horizon=workload.flush_horizon,
                                   tracer=tracer, metrics=metrics)
    else:
        db = Database(config, tracer=tracer, metrics=metrics)
    return Engine(db, tracer, trace_path)
