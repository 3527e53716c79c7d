"""Main-memory web-database substrate: items, register table, 2PL-HP locks,
and the preemptive single-CPU server."""

from .admission import (AdmissionPolicy, AdmitAll, OverloadShedding,
                        ProfitAwareAdmission)
from .database import Database
from .items import DataItem
from .locks import LockManager
from .server import DatabaseServer, ServerConfig
from .transactions import (LIVE_STATUSES, Query, Transaction, TxnStatus,
                           Update)
from .wal import Checkpoint, DurabilityConfig, WalRecord, WriteAheadLog

__all__ = [
    "Checkpoint",
    "DurabilityConfig",
    "WalRecord",
    "WriteAheadLog",
    "AdmissionPolicy",
    "AdmitAll",
    "OverloadShedding",
    "ProfitAwareAdmission",
    "DataItem",
    "Database",
    "DatabaseServer",
    "LIVE_STATUSES",
    "LockManager",
    "Query",
    "ServerConfig",
    "Transaction",
    "TxnStatus",
    "Update",
]
