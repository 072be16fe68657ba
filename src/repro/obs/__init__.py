"""Observability: structured event tracing and metrics.

The paper's argument is an *accounting* argument — every cost is a
countable page-transfer event.  This package makes those events
first-class:

* :class:`~repro.obs.tracer.Tracer` emits typed, timestamped events to a
  pluggable sink (:class:`~repro.obs.tracer.BufferedJsonlSink`,
  :class:`~repro.obs.tracer.RingBufferSink`,
  :class:`~repro.obs.tracer.NullSink`), with *spans* for multi-step
  operations (recovery phases, checkpoints, rebuilds) that carry their
  :class:`~repro.storage.iostats.IOStats` delta — so each traced
  operation knows its page-transfer cost;
* :class:`~repro.obs.metrics.MetricsRegistry` holds counters, gauges and
  histograms with labeled children and a JSON-friendly ``snapshot()``;
* :mod:`repro.obs.inspect` aggregates a trace file into a per-event-type
  cost table comparable against the analytical model's predicted
  transfer counts (``python -m repro inspect-trace``);
* :class:`~repro.obs.recovery_profile.RecoveryProfile` turns the restart
  phase spans into per-phase recovery breakdowns, MTTR and availability
  accounting across crash/restart cycles;
* :mod:`repro.obs.export` converts a JSONL trace to Chrome
  trace-event/Perfetto JSON (``python -m repro export-trace``);
* :class:`~repro.obs.drift.DriftDetector` watches measured per-operation
  transfer costs against the analytical model's bands and raises
  structured :class:`~repro.obs.drift.DriftAlarm` events on divergence.

Everything is dependency-free and near-zero overhead when disabled: the
shared :data:`NULL_TRACER` refuses work after one attribute check, so
uninstrumented-feeling hot paths stay hot.
"""

from .drift import DriftAlarm, DriftDetector, check_events
from .export import export_chrome_trace, export_trace_file
from .inspect import (aggregate_events, aggregate_trace_file, event_key,
                      format_cost_table, load_trace, model_expectation,
                      unpriced_ops)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recovery_profile import RecoveryProfile, format_recovery_profile
from .tracer import (NULL_TRACER, BufferedJsonlSink, LabelledTracer,
                     NullSink, RingBufferSink, Span, Tracer, close_all)

__all__ = [
    "NULL_TRACER",
    "Tracer",
    "LabelledTracer",
    "Span",
    "NullSink",
    "RingBufferSink",
    "BufferedJsonlSink",
    "close_all",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "aggregate_events",
    "aggregate_trace_file",
    "event_key",
    "format_cost_table",
    "load_trace",
    "model_expectation",
    "unpriced_ops",
    "DriftAlarm",
    "DriftDetector",
    "check_events",
    "export_chrome_trace",
    "export_trace_file",
    "RecoveryProfile",
    "format_recovery_profile",
]
