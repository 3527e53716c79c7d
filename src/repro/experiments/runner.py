"""Run one scheduler × workload × QC-setup simulation.

This is the library's main entry point: it wires the discrete-event
environment, the database, the lock manager, the scheduler, the profit
ledger, and the arrival processes together, replays a trace, and returns a
:class:`~repro.metrics.results.SimulationResult`.
"""

from __future__ import annotations

import typing

from repro.db.admission import AdmissionPolicy
from repro.db.database import Database, StalenessAggregation
from repro.db.server import DatabaseServer, ServerConfig
from repro.db.transactions import Query, Update, restart_txn_ids
from repro.metrics.profit import ProfitLedger
from repro.metrics.results import SimulationResult
from repro.qc.contracts import QualityContract
from repro.scheduling.base import Scheduler
from repro.scheduling.quts import QUTSScheduler
from repro.sim import Environment
from repro.sim.rng import RandomStream, StreamRegistry
from repro.sim.sanitizer import Sanitizer
from repro.telemetry.hooks import KernelProbe, TelemetryKnob
from repro.workload.traces import (QueryRecord, Trace, UpdateRecord, drive,
                                   replay_rows)

#: Anything with ``sample(rng, now) -> QualityContract`` can price queries.
class QCSource(typing.Protocol):
    def sample(self, rng: RandomStream,
               now: float = 0.0) -> QualityContract:
        ...  # pragma: no cover


class _FixedQCSource:
    """Gives every query the same contract (e.g. the free contract)."""

    def __init__(self, contract: QualityContract) -> None:
        self._contract = contract

    def sample(self, rng: RandomStream,
               now: float = 0.0) -> QualityContract:
        return self._contract


def free_qc_source() -> QCSource:
    """A source of zero-profit contracts, for the non-QC Figure 1 runs."""
    return _FixedQCSource(QualityContract.free())


def run_simulation(scheduler: Scheduler, trace: Trace,
                   qc_source: QCSource | None = None, *,
                   master_seed: int = 0,
                   drain_ms: float = 30_000.0,
                   server_config: ServerConfig | None = None,
                   staleness_aggregation: StalenessAggregation = "max",
                   invalidation: bool = True,
                   admission: "AdmissionPolicy | None" = None,
                   telemetry: TelemetryKnob = None,
                   sanitizer: Sanitizer | None = None,
                   ) -> SimulationResult:
    """Replay ``trace`` under ``scheduler`` and collect all metrics.

    ``qc_source`` prices each query at submission time (defaults to the
    free contract).  After the last arrival the simulation keeps running
    for ``drain_ms`` so in-flight work can finish; whatever remains is
    counted as unfinished.  ``invalidation=False`` disables the update
    register table's supersession (ablation only — the paper's model has
    it on).  ``telemetry`` enables structured tracing (see
    :mod:`repro.telemetry`); the session comes back on
    ``result.telemetry`` and the run's numbers are byte-identical with
    it on or off.  ``sanitizer`` runs the simulation under the
    determinism sanitizer (see :mod:`repro.sim.sanitizer`): the eid
    counter is swapped before any event exists and, in race mode, the
    database and scheduler are wrapped in access-tracking proxies —
    results stay byte-identical with the sanitizer on or off.
    """
    if qc_source is None:
        qc_source = free_qc_source()

    restart_txn_ids()
    env = Environment()
    if sanitizer is not None:
        sanitizer.install(env)
    streams = StreamRegistry(master_seed)
    if sanitizer is not None and sanitizer.track_state:
        database: Database = sanitizer.tracked_database(
            staleness_aggregation=staleness_aggregation,
            invalidation=invalidation)
        sanitizer.track_scheduler(scheduler)
    else:
        database = Database(staleness_aggregation=staleness_aggregation,
                            invalidation=invalidation)
    ledger = ProfitLedger()
    server = DatabaseServer(env, database, scheduler, ledger, streams,
                            config=server_config, admission=admission,
                            telemetry=telemetry)
    session = server.telemetry  # resolved knob (explicit or from config)

    qc_rng = streams.stream("qc.sampler")

    def submit_query(_arrival_ms: float, items: tuple[str, ...],
                     exec_ms: float) -> None:
        contract = qc_source.sample(qc_rng, env.now)
        server.submit_query(Query(env.now, exec_ms, items, contract))

    def submit_update(_arrival_ms: float, item: str, exec_ms: float,
                      value: float) -> None:
        server.submit_update(Update(env.now, exec_ms, item, value=value))

    env.process(drive(env, replay_rows(QueryRecord, trace.queries),
                      submit_query), name="query-source")
    env.process(drive(env, replay_rows(UpdateRecord, trace.updates),
                      submit_update), name="update-source")

    horizon = trace.duration_ms + max(0.0, drain_ms)
    env.run(until=horizon)
    server.finalize()
    if sanitizer is not None:
        sanitizer.finish()
    if isinstance(env.telemetry, KernelProbe):
        env.telemetry.flush(env.fast_forwards)

    rho_series = (scheduler.rho_series
                  if isinstance(scheduler, QUTSScheduler) else None)
    return SimulationResult(
        scheduler_name=scheduler.name,
        duration=horizon,
        ledger=ledger,
        rho_series=rho_series,
        lock_stats=server.lock_stats,
        metadata={
            "trace": trace.name,
            "n_queries": len(trace.queries),
            "n_updates": len(trace.updates),
            "master_seed": master_seed,
            "drain_ms": drain_ms,
        },
        telemetry=session,
    )

