"""Open-loop load harness for the live gateway (SNIPPETS §3 idiom).

The generator is **open-loop**: the arrival schedule is precomputed
from deterministic named streams (Poisson arrivals, Zipf-skewed stock
keys, QC contracts from the paper's balanced factory) and dispatched
*on schedule regardless of how the server is doing* — a slow server
faces a growing backlog, exactly like production traffic.  Closed-loop
clients (wait for the reply, then send) would silently throttle
themselves and hide the overload the robustness layer exists to
survive.

Three tiers, mirroring the benchmark layout of the mini-exchange
harness the ROADMAP points at:

* **correctness** — a short run whose value is its assertions: every
  offered request resolves to exactly one terminal outcome and the
  ledger's counters reconcile with the client's view;
* **micro-scaling** — a small policy × load-multiplier grid recording
  p50/p99/p999 response time and realized QoS/QoD per cell;
* **realistic (overload)** — the full robustness stack (deadlines +
  backpressure + brownout + retry budget) against a no-defenses
  baseline *on the same arrival schedule*, comparing goodput
  (completed-within-deadline rate).

Both arms and every cell are scored with the same report-side
deadline — ``min(lifetime, deadline_factor × rtmax)`` — so disabling
server-side cancellation never changes the measuring stick, only the
behaviour.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import typing

from repro.db.admission import (AdmissionPolicy, BrownoutAdmission,
                                OverloadShedding)
from repro.db.transactions import restart_txn_ids
from repro.qc.contracts import QualityContract
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.sim.rng import StreamRegistry

from .gateway import GatewayConfig, GatewayReply, QCGateway
from .retry import RetryBudget, RetryPolicy

#: Report-side deadline factor (also the default server-side factor).
DEADLINE_FACTOR = 4.0


@dataclasses.dataclass
class LoadgenConfig:
    """The offered-load model (times in ms, rates per second)."""

    duration_ms: float = 2_500.0
    #: Scales both arrival rates; the knob the scaling tier sweeps.
    rate_multiplier: float = 1.0
    #: Base rates at multiplier 1.0: nominal CPU utilisation 0.6 with the
    #: service times below; measured 0.57 (1.0x), 0.87 (1.5x), 0.95
    #: (1.7x), saturated from ~1.8x — the knee (docs/API.md §16).
    query_rate_per_s: float = 100.0
    update_rate_per_s: float = 300.0
    n_keys: int = 512
    #: Zipf skew (Table 2: queries 0.9, updates 0.75).
    query_zipf_theta: float = 0.9
    update_zipf_theta: float = 0.75
    query_exec_ms: tuple[float, float] = (2.0, 4.0)
    update_exec_ms: tuple[float, float] = (0.5, 1.5)
    master_seed: int = 1
    #: Client retry budget fraction (None: retries disabled).
    retry_fraction: float | None = 0.1
    max_retries: int = 3

    def __post_init__(self) -> None:
        if not self.duration_ms > 0:
            raise ValueError(
                f"duration_ms must be positive, got {self.duration_ms}")
        if not self.rate_multiplier > 0:
            raise ValueError(f"rate_multiplier must be positive, "
                             f"got {self.rate_multiplier}")
        if self.n_keys < 1:
            raise ValueError(f"n_keys must be >= 1, got {self.n_keys}")


@dataclasses.dataclass
class Arrival:
    """One scheduled request (an update when ``items`` is length 1 and
    ``qc`` is None)."""

    at_ms: float
    kind: str  # "query" | "update"
    items: tuple[str, ...]
    exec_ms: float
    qc: QualityContract | None = None
    value: float = 0.0


@dataclasses.dataclass
class RequestRecord:
    """The client's view of one offered request's fate."""

    kind: str
    offered_at_ms: float
    outcome: str
    sends: int
    response_time_ms: float | None = None
    qos_profit: float = 0.0
    qod_profit: float = 0.0
    degraded: bool = False
    deadline_met: bool = False


def build_schedule(config: LoadgenConfig) -> list[Arrival]:
    """Sample the deterministic open-loop arrival schedule."""
    streams = StreamRegistry(config.master_seed)
    sample_qc, qc_rng = QCFactory.balanced().sample, streams.stream("live.qc")
    value = streams.stream("live.values.update").uniform
    # Rank r (1-based) -> its one-item read/write set.
    items = [()] + [(f"S{rank:04d}",)
                    for rank in range(1, config.n_keys + 1)]
    arrivals: list[Arrival] = []
    # Per-arrival lookups are hoisted; every draw still comes from the
    # same named stream in the same order (tests/zipf_reference.py).
    for kind, rate, theta, (low, high) in (
            ("query", config.query_rate_per_s, config.query_zipf_theta,
             config.query_exec_ms),
            ("update", config.update_rate_per_s, config.update_zipf_theta,
             config.update_exec_ms)):
        rate *= config.rate_multiplier
        if rate <= 0:
            continue
        gap = streams.stream(f"live.arrivals.{kind}").exponential
        rank = streams.stream(f"live.keys.{kind}").zipf_sampler(
            config.n_keys, theta)
        exec_ms = streams.stream(f"live.exec.{kind}").uniform
        mean_gap = 1000.0 / rate
        at = gap(mean_gap)
        while at < config.duration_ms:
            arrival = Arrival(at, kind, items[rank()], exec_ms(low, high))
            if kind == "query":
                arrival.qc = sample_qc(qc_rng, now=at)
            else:
                arrival.value = value(1.0, 100.0)
            arrivals.append(arrival)
            at += gap(mean_gap)

    arrivals.sort(key=lambda a: a.at_ms)
    return arrivals


def _report_deadline_ms(arrival: Arrival) -> float:
    """The report-side deadline both arms are scored against."""
    assert arrival.qc is not None
    deadline = arrival.qc.lifetime
    rt_max = arrival.qc.rt_max
    if 0 < rt_max < float("inf"):
        deadline = min(deadline, DEADLINE_FACTOR * rt_max)
    return deadline


async def _one_request(gateway: QCGateway, arrival: Arrival,
                       retry: RetryPolicy | None,
                       records: list[RequestRecord]) -> None:
    """Submit one offered request, retrying per the client policy."""
    sends = 0
    attempt = 0
    while True:
        sends += 1
        if retry is not None and retry.budget is not None and sends == 1:
            retry.budget.on_first_send()
        if arrival.kind == "query":
            assert arrival.qc is not None
            future = gateway.submit_query(arrival.items, arrival.qc,
                                          arrival.exec_ms)
        else:
            future = gateway.submit_update(arrival.items[0], arrival.value,
                                           arrival.exec_ms)
        reply: GatewayReply = await future
        if reply.outcome in ("backpressure", "shed") and retry is not None \
                and retry.should_retry(attempt):
            backoff = reply.retry_after_ms or 0.0
            backoff += retry.backoff_ms(attempt)
            attempt += 1
            await asyncio.sleep(backoff / 1000.0)
            continue
        met = False
        if arrival.kind == "query" and reply.outcome == "completed" \
                and reply.response_time_ms is not None:
            met = reply.response_time_ms <= _report_deadline_ms(arrival)
        records.append(RequestRecord(
            arrival.kind, arrival.at_ms, reply.outcome, sends,
            response_time_ms=reply.response_time_ms,
            qos_profit=reply.qos_profit, qod_profit=reply.qod_profit,
            degraded=reply.degraded, deadline_met=met))
        return


async def drive(gateway: QCGateway, schedule: typing.Sequence[Arrival],
                config: LoadgenConfig) -> list[RequestRecord]:
    """Dispatch the schedule open-loop against a *running* gateway."""
    retry: RetryPolicy | None = None
    if config.retry_fraction is not None:
        budget = RetryBudget(fraction=config.retry_fraction)
        retry = RetryPolicy(
            gateway.streams.stream("live.client.retry"),
            max_retries=config.max_retries, budget=budget)
    records: list[RequestRecord] = []
    tasks: list[asyncio.Task[None]] = []
    clock = gateway.clock
    origin = clock.now
    index = 0
    loop = asyncio.get_running_loop()
    while index < len(schedule):
        now = clock.now - origin
        # Dispatch everything due (late dispatch = an arrival burst; the
        # open-loop property is that we never *wait* for the server).
        while index < len(schedule) and schedule[index].at_ms <= now:
            tasks.append(loop.create_task(_one_request(
                gateway, schedule[index], retry, records)))
            index += 1
        if index < len(schedule):
            gap_ms = schedule[index].at_ms - (clock.now - origin)
            if gap_ms > 0:
                await asyncio.sleep(gap_ms / 1000.0)
    if tasks:
        await asyncio.gather(*tasks)
    return records


# ----------------------------------------------------------------------
# Cells and reports
# ----------------------------------------------------------------------
def _percentile(ordered: typing.Sequence[float], q: float) -> float | None:
    if not ordered:
        return None
    index = max(0, min(len(ordered) - 1,
                       math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def summarize(records: typing.Sequence[RequestRecord],
              gateway: QCGateway) -> dict[str, typing.Any]:
    """Aggregate one cell's records into the JSON-ready report row."""
    queries = [r for r in records if r.kind == "query"]
    completed = [r for r in queries if r.outcome == "completed"]
    rts = sorted(r.response_time_ms for r in completed
                 if r.response_time_ms is not None)
    ledger, cpu = gateway.ledger, gateway.cpu
    outcome_counts = {outcome: 0 for outcome in
                      ("completed", "shed", "backpressure", "timed_out",
                       "superseded", "unfinished")}
    for record in queries:
        outcome_counts[record.outcome] += 1
    return {
        "offered_queries": len(queries),
        "offered_updates": sum(1 for r in records if r.kind == "update"),
        "outcomes": outcome_counts,
        "degraded": sum(1 for r in queries if r.degraded),
        "goodput": (sum(1 for r in queries if r.deadline_met)
                    / len(queries) if queries else 0.0),
        "response_time_ms": {
            "p50": _percentile(rts, 0.50),
            "p99": _percentile(rts, 0.99),
            "p999": _percentile(rts, 0.999),
        },
        "qos_percent": ledger.qos_percent,
        "qod_percent": ledger.qod_percent,
        "total_percent": ledger.total_percent,
        "mean_qos_profit": (sum(r.qos_profit for r in completed)
                            / len(completed) if completed else 0.0),
        "mean_qod_profit": (sum(r.qod_profit for r in completed)
                            / len(completed) if completed else 0.0),
        "client_sends": sum(r.sends for r in records),
        "updates_applied": ledger.counters.value("updates_applied"),
        "updates_superseded": ledger.counters.value("updates_superseded"),
        "queries_browned_out": ledger.counters.value("queries_browned_out"),
        # Did the host keep up with the modelled CPU (see CpuAccount)?
        "cpu_lag_ms": {"mean": cpu.lag_sum_ms / max(cpu.slices, 1),
                       "max": cpu.lag_max_ms},
        "cpu_rate": (cpu.charged_ms / cpu.busy_wall_ms
                     if cpu.busy_wall_ms else None),
    }


#: Live watermarks: with deadline cancellation on, the query backlog
#: self-limits — measured on the rated-speed CPU it peaks at 65-73 (3x
#: load, brownout off; p90 ~45) and stays <= 11 up to the knee — so the
#: DES defaults (150/75) would never trip on the live path.  High = half
#: that peak; low stays above anything a load below the knee reaches.
LIVE_HIGH_WATERMARK = 32
LIVE_LOW_WATERMARK = 16


def _admission_for(name: str) -> AdmissionPolicy | None:
    if name == "none":
        return None
    if name == "shed":
        return OverloadShedding(high_watermark=LIVE_HIGH_WATERMARK,
                                low_watermark=LIVE_LOW_WATERMARK)
    if name == "brownout":
        return BrownoutAdmission(high_watermark=LIVE_HIGH_WATERMARK,
                                 low_watermark=LIVE_LOW_WATERMARK)
    raise ValueError(f"unknown admission mode {name!r}; "
                     f"choose none, shed, or brownout")


def defended_gateway_config() -> GatewayConfig:
    """The full robustness stack's server-side half.

    The query bound sits above the brownout watermark but below what a
    deep overload would otherwise queue, so extreme load reaches
    explicit backpressure instead of an ever-longer queue; the update
    bound is loose because supersession already caps live updates at
    one per key.
    """
    return GatewayConfig(max_pending_queries=128,
                         max_pending_updates=1024,
                         deadline_factor=DEADLINE_FACTOR,
                         drop_expired=True)


def baseline_gateway_config() -> GatewayConfig:
    """No defenses: unbounded-ish ingress, no deadline cancellation."""
    return GatewayConfig(max_pending_queries=1_000_000_000,
                         max_pending_updates=1_000_000_000,
                         deadline_factor=None, drop_expired=False)


async def _run_cell_async(policy: str, config: LoadgenConfig,
                          gateway_config: GatewayConfig,
                          admission: AdmissionPolicy | None,
                          ) -> dict[str, typing.Any]:
    schedule = build_schedule(config)
    gateway = QCGateway(make_scheduler(policy), gateway_config,
                        admission=admission,
                        master_seed=config.master_seed)
    await gateway.start()
    try:
        records = await drive(gateway, schedule, config)
        await gateway.drain(timeout_ms=20_000.0)
    finally:
        await gateway.stop()
    report = summarize(records, gateway)
    report["policy"] = policy
    report["rate_multiplier"] = config.rate_multiplier
    report["duration_ms"] = config.duration_ms
    return report


def run_cell(policy: str, *, defended: bool = True,
             admission: str = "brownout",
             config: LoadgenConfig | None = None) -> dict[str, typing.Any]:
    """Run one policy × load cell end to end (its own event loop)."""
    config = config if config is not None else LoadgenConfig()
    gateway_config = (defended_gateway_config() if defended
                      else baseline_gateway_config())
    policy_admission = _admission_for(admission) if defended else None
    if not defended:
        config = dataclasses.replace(config, retry_fraction=None)
    restart_txn_ids()
    return asyncio.run(_run_cell_async(policy, config, gateway_config,
                                       policy_admission))
