"""Workload substrate: synthetic Stock.com/NYSE traces and their statistics."""

from .stats import (PerStockCounts, RateSeries, WorkloadSummary,
                    per_stock_counts, query_rate_series, summarize,
                    update_rate_series)
from .stocks import StockUniverse, ticker_symbol
from .synthetic import (PAPER_DURATION_MS, PAPER_N_QUERIES, PAPER_N_STOCKS,
                        PAPER_N_UPDATES, StockWorkloadGenerator, WorkloadSpec,
                        paper_trace)
from .traces import (QueryRecord, RecordColumns, Trace, UpdateRecord, drive,
                     replay_rows)

__all__ = [
    "PAPER_DURATION_MS",
    "PAPER_N_QUERIES",
    "PAPER_N_STOCKS",
    "PAPER_N_UPDATES",
    "PerStockCounts",
    "QueryRecord",
    "RateSeries",
    "RecordColumns",
    "StockUniverse",
    "StockWorkloadGenerator",
    "Trace",
    "UpdateRecord",
    "WorkloadSpec",
    "WorkloadSummary",
    "drive",
    "paper_trace",
    "per_stock_counts",
    "query_rate_series",
    "replay_rows",
    "summarize",
    "ticker_symbol",
    "update_rate_series",
]
