"""Fault injection: the bug classes of slides 13/22 as ground-truth faults."""

from .catalog import (
    FAULT_SPECS,
    FaultContext,
    FaultInstance,
    FaultKind,
    FaultSpec,
    Severity,
    apply_fault,
    revert_fault,
)
from .injector import FaultInjector, GroundTruth
from .services import ServiceHealth

__all__ = [
    "FaultKind",
    "Severity",
    "FaultSpec",
    "FaultInstance",
    "FaultContext",
    "FAULT_SPECS",
    "apply_fault",
    "revert_fault",
    "FaultInjector",
    "GroundTruth",
    "ServiceHealth",
]
