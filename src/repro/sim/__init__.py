"""Workload generation, simulation driving, and crash-point fault sweeps."""

from .metrics import DEFAULT_T, SimulationReport
from .simulator import Simulator, run_workload
from .timed import TimedObserver
from .tpcb import TPCB, TPCBConfig
from .workload import (HIGH_RETRIEVAL, HIGH_UPDATE, Access, TransactionScript,
                       WorkloadGenerator, WorkloadSpec)

# last: faultplan imports the judge from repro.check, whose differential
# module imports Simulator and WorkloadSpec from this package
from .faultplan import (CrashPointReached, FaultInjector, FaultPlan,
                        FaultSweepReport, PlanOutcome, WriteRecord,
                        fault_workload, record_fault_setup, record_schedule,
                        run_plan, run_sweep)

__all__ = [
    "CrashPointReached",
    "FaultInjector",
    "FaultPlan",
    "FaultSweepReport",
    "PlanOutcome",
    "WriteRecord",
    "fault_workload",
    "record_fault_setup",
    "record_schedule",
    "run_plan",
    "run_sweep",
    "DEFAULT_T",
    "SimulationReport",
    "Simulator",
    "run_workload",
    "TimedObserver",
    "TPCB",
    "TPCBConfig",
    "HIGH_RETRIEVAL",
    "HIGH_UPDATE",
    "Access",
    "TransactionScript",
    "WorkloadGenerator",
    "WorkloadSpec",
]
