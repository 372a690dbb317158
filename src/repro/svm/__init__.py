"""SVM protocol layer: HLRC-SMP base protocol and GeNIMA extensions."""

from .barriers import BarrierManager
from .diffs import DiffShape, apply_diff, compute_diff, diff_payload_bytes
from .features import (BASE, DW, DW_RF, DW_RF_DD, GENIMA, GENIMA_MC,
                       GENIMA_PLUS, GENIMA_SG, PROTOCOL_LADDER,
                       ProtocolFeatures)
from .locks import InterruptLockManager
from .mprotect import MprotectModel
from .pages import (HomePage, NodePageTable, PageAccess, PageDirectory,
                    SharedRegion)
from .protocol import HLRCProtocol
from .timestamps import Interval, IntervalLog, VectorClock

__all__ = [
    "BarrierManager",
    "DiffShape",
    "apply_diff",
    "compute_diff",
    "diff_payload_bytes",
    "ProtocolFeatures",
    "BASE",
    "DW",
    "DW_RF",
    "DW_RF_DD",
    "GENIMA",
    "GENIMA_SG",
    "GENIMA_MC",
    "GENIMA_PLUS",
    "PROTOCOL_LADDER",
    "InterruptLockManager",
    "MprotectModel",
    "HomePage",
    "NodePageTable",
    "PageAccess",
    "PageDirectory",
    "SharedRegion",
    "HLRCProtocol",
    "Interval",
    "IntervalLog",
    "VectorClock",
]
