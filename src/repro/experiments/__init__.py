"""Experiment harness: one driver per table/figure of the paper."""

from .ablations import (ABLATIONS, ablation_invalidation,
                        ablation_low_level, ablation_preemption,
                        ablation_rho)
from .chaos import CHAOS_POLICIES, CHAOS_REPLICAS, chaos_search
from .config import (DEFAULT_SCALE, POLICY_NAMES, SCALES, ExperimentConfig,
                     chosen_scale, table4_grid, table4_rows)
from .faults import (FAULT_MTTFS_MS, FAULT_MTTR_MS, FAULT_POLICIES,
                     FAULT_REPLICAS, fault_sweep, sample_fault_plans)
from .figures import (FIG10_OMEGAS_MS, FIG10_TAUS_MS, FIG9_PHASE_MS,
                      FIG9_RATIOS, fig1, fig10, fig5, fig6, fig7, fig8, fig9,
                      fig9_contracts)
from .recovery import (RECOVERY_CHECKPOINTS_MS, RECOVERY_CRASH_AT_MS,
                       RECOVERY_DOWN_MS, RECOVERY_POLICIES,
                       RECOVERY_REPLICAS, recovery_crash_time,
                       recovery_sweep)
from .replication import (MetricSummary, compare_policies, replicate)
from .report import format_series, format_table, save_csv
from .runner import QCSource, free_qc_source, run_simulation
from .scaleout import (SHARD_COUNTS, ShardedResult, hot_key_spec,
                       run_sharded_simulation, shard_sweep, skew_sweep)
from .tables import table3, table4

__all__ = [
    "ABLATIONS",
    "CHAOS_POLICIES",
    "CHAOS_REPLICAS",
    "chaos_search",
    "DEFAULT_SCALE",
    "ablation_invalidation",
    "ablation_low_level",
    "ablation_preemption",
    "ablation_rho",
    "ExperimentConfig",
    "FAULT_MTTFS_MS",
    "FAULT_MTTR_MS",
    "FAULT_POLICIES",
    "FAULT_REPLICAS",
    "FIG10_OMEGAS_MS",
    "FIG10_TAUS_MS",
    "FIG9_PHASE_MS",
    "FIG9_RATIOS",
    "MetricSummary",
    "POLICY_NAMES",
    "QCSource",
    "RECOVERY_CHECKPOINTS_MS",
    "RECOVERY_CRASH_AT_MS",
    "RECOVERY_DOWN_MS",
    "RECOVERY_POLICIES",
    "RECOVERY_REPLICAS",
    "recovery_crash_time",
    "recovery_sweep",
    "SCALES",
    "chosen_scale",
    "compare_policies",
    "fault_sweep",
    "replicate",
    "sample_fault_plans",
    "fig1",
    "fig10",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig9_contracts",
    "format_series",
    "format_table",
    "free_qc_source",
    "hot_key_spec",
    "run_sharded_simulation",
    "run_simulation",
    "save_csv",
    "SHARD_COUNTS",
    "shard_sweep",
    "ShardedResult",
    "skew_sweep",
    "table3",
    "table4",
    "table4_grid",
    "table4_rows",
]
