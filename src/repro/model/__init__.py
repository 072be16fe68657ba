"""The paper's analytical model and figure generators."""

from . import operations, page_logging, record_logging
from .figures import (DEFAULT_C_SWEEP, DEFAULT_S_SWEEP, FigureSeries,
                      all_figures, figure9, figure10, figure11, figure12,
                      figure13)
from .params import ModelParams, high_retrieval, high_update
from .queueing import (max_txn_rate, response_time_ms, saturation_gain,
                       throughput_latency_curve, txn_response_ms, utilization)
from .reliability import paper_motivation_table
from .sensitivity import SweepResult, rda_gain_sweep, sweep
from .probabilities import (average_log_entry_length,
                            concurrent_modifier_fraction,
                            geometric_chain_term, logging_probability,
                            optimal_checkpoint_interval,
                            replaced_page_modified, shared_update_pages,
                            stolen_before_eot)
from .throughput import (CostBreakdown, interval_throughput,
                         mean_transaction_cost)

from .operations import (MODEL_EXPECTATIONS, OPERATION_COSTS, OperationCost,
                         predicted_band, transfer_bands)

__all__ = [
    "operations",
    "page_logging",
    "record_logging",
    "MODEL_EXPECTATIONS",
    "OPERATION_COSTS",
    "OperationCost",
    "predicted_band",
    "transfer_bands",
    "DEFAULT_C_SWEEP",
    "DEFAULT_S_SWEEP",
    "FigureSeries",
    "all_figures",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "ModelParams",
    "high_retrieval",
    "high_update",
    "average_log_entry_length",
    "concurrent_modifier_fraction",
    "geometric_chain_term",
    "logging_probability",
    "optimal_checkpoint_interval",
    "replaced_page_modified",
    "shared_update_pages",
    "stolen_before_eot",
    "CostBreakdown",
    "interval_throughput",
    "mean_transaction_cost",
    "max_txn_rate",
    "response_time_ms",
    "saturation_gain",
    "throughput_latency_curve",
    "txn_response_ms",
    "utilization",
    "paper_motivation_table",
    "SweepResult",
    "rda_gain_sweep",
    "sweep",
]
