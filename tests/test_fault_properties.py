"""Property-based robustness invariants (any policy, any fault schedule).

Whatever faults are injected and whichever scheduler runs, the system
must degrade — never misbehave:

* profit percentages stay in [0, 1];
* the outcome counters balance: every submitted contract ends up
  committed, lifetime-dropped, unfinished at the horizon, or lost to a
  crash — queries never vanish from the ledger;
* the router never returns an out-of-range or dead replica index.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import HedgedRouter, run_cluster_simulation
from repro.faults import FaultEvent, FaultPlan
from repro.faults.plan import (CRASH, PORTAL_CRASH, PORTAL_RECOVER, RECOVER,
                               RESUME_UPDATES, SPIKE_END, SPIKE_START,
                               STALL_UPDATES)
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

DURATION_MS = 8_000.0
TRACE = StockWorkloadGenerator(WorkloadSpec().scaled(DURATION_MS),
                               master_seed=23).generate()


class _VerifyingRouter(HedgedRouter):
    """Asserts the failure-awareness contract on every routing decision."""

    def __init__(self):
        super().__init__()
        self.checked = 0

    def choose(self, query, replicas):
        index = super().choose(query, replicas)
        assert 0 <= index < len(replicas), index
        assert replicas[index].up, f"routed to dead replica {index}"
        self.checked += 1
        return index


times = st.floats(min_value=0.0, max_value=DURATION_MS,
                  allow_nan=False, allow_infinity=False)
durations = st.floats(min_value=50.0, max_value=6_000.0,
                      allow_nan=False, allow_infinity=False)
gaps = st.floats(min_value=1.0, max_value=4_000.0,
                 allow_nan=False, allow_infinity=False)


@st.composite
def fault_plans(draw):
    """Well-formed schedules: per-replica outages never overlap
    themselves (FaultPlan validation rejects double-crashes), and a
    portal-wide outage replaces replica-level ones when drawn."""
    events = []
    if draw(st.booleans()):
        at = draw(times)
        events.append(FaultEvent(at, PORTAL_CRASH))
        events.append(FaultEvent(at + draw(durations), PORTAL_RECOVER))
    else:
        for replica in (0, 1):
            t = draw(times)
            for _ in range(draw(st.integers(min_value=0, max_value=2))):
                down = draw(durations)
                events.append(FaultEvent(t, CRASH, replica=replica))
                events.append(
                    FaultEvent(t + down, RECOVER, replica=replica))
                t += down + draw(gaps)
    plan = FaultPlan(events)
    if draw(st.booleans()):
        plan = plan.merged(FaultPlan(
            [FaultEvent(draw(times), STALL_UPDATES),
             FaultEvent(draw(times) + DURATION_MS, RESUME_UPDATES)]))
    if draw(st.booleans()):
        at = draw(times)
        plan = plan.merged(FaultPlan(
            [FaultEvent(at, SPIKE_START,
                        magnitude=draw(st.floats(min_value=1.0,
                                                 max_value=3.0))),
             FaultEvent(at + draw(durations), SPIKE_END)]))
    return plan


class TestFaultScheduleInvariants:
    @given(plan=fault_plans(),
           policy=st.sampled_from(("FIFO", "QUTS")))
    # Every query earns its whole contract: gained == maximum profit up
    # to summation order, and the ratio must still not exceed 1.0.
    @example(plan=FaultPlan([FaultEvent(9.0, STALL_UPDATES),
                             FaultEvent(3327.0, CRASH, replica=0),
                             FaultEvent(3377.0, RECOVER, replica=0),
                             FaultEvent(8000.0, RESUME_UPDATES)]),
             policy="FIFO")
    @settings(max_examples=12, deadline=None)
    def test_degrades_never_misbehaves(self, plan, policy):
        router = _VerifyingRouter()
        result = run_cluster_simulation(
            2, lambda: make_scheduler(policy), TRACE,
            QCFactory.balanced(), router=router, master_seed=1,
            fault_plan=plan, invariants=True)

        assert 0.0 <= result.total_percent <= 1.0
        assert 0.0 <= result.qos_percent <= 1.0
        assert 0.0 <= result.qod_percent <= 1.0
        assert 0.0 <= result.availability <= 1.0
        # The union of outage intervals never exceeds the replica-ms sum
        # and availability ranks accordingly.
        assert result.downtime_union_ms <= result.downtime_ms + 1e-6
        assert result.invariants_checked

        c = result.counters
        assert c.get("queries_submitted", 0) == (
            c.get("queries_committed", 0)
            + c.get("queries_dropped_lifetime", 0)
            + c.get("queries_unfinished", 0)
            + c.get("queries_lost_crash", 0))
        # At least every base trace query was priced into a ledger
        # (spike clones only ever add on top).
        assert c.get("queries_submitted", 0) \
            + c.get("queries_rejected", 0) >= len(TRACE.queries)
        # Failovers are retried or lost, never silently dropped.
        assert c.get("query_retries", 0) + c.get("queries_lost_crash", 0) \
            >= c.get("queries_failed_over", 0) \
            + c.get("queries_stranded_arrival", 0) \
            - c.get("queries_unfinished", 0)
        assert router.checked > 0


@st.composite
def blackout_plans(draw):
    """Schedules with a guaranteed zero-healthy-replica window: both
    replicas are down at once for part of the run."""
    start = draw(st.floats(min_value=500.0, max_value=DURATION_MS / 2,
                           allow_nan=False, allow_infinity=False))
    down0 = draw(durations)
    # Replica 1 crashes strictly inside replica 0's outage.
    offset = draw(st.floats(min_value=0.0, max_value=0.9,
                            allow_nan=False, allow_infinity=False))
    other = start + offset * down0
    down1 = draw(durations)
    return FaultPlan([
        FaultEvent(start, CRASH, replica=0),
        FaultEvent(start + down0, RECOVER, replica=0),
        FaultEvent(other, CRASH, replica=1),
        FaultEvent(other + down1, RECOVER, replica=1),
    ])


class TestZeroHealthyReplicaWindows:
    @given(plan=blackout_plans(),
           policy=st.sampled_from(("FIFO", "QUTS")))
    @settings(max_examples=12, deadline=None)
    def test_total_blackout_strands_but_never_drops(self, plan, policy):
        """With every replica down at once, arrivals strand and retry;
        the run still completes and no query silently vanishes."""
        result = run_cluster_simulation(
            2, lambda: make_scheduler(policy), TRACE,
            QCFactory.balanced(), router=HedgedRouter(), master_seed=1,
            fault_plan=plan, invariants=True)

        c = result.counters
        # Conservation: every submitted contract reached a terminal
        # outcome — committed, dropped-by-lifetime, unfinished at the
        # horizon, or lost to the crash.  Nothing disappears.
        assert c.get("queries_submitted", 0) == (
            c.get("queries_committed", 0)
            + c.get("queries_dropped_lifetime", 0)
            + c.get("queries_unfinished", 0)
            + c.get("queries_lost_crash", 0))
        # The blackout really happened and queries still completed
        # around it.
        assert c["replica_crashes"] == 2
        assert result.downtime_union_ms > 0.0
        assert c.get("queries_committed", 0) > 0
        # Anything stranded while no replica was routable was later
        # adopted (a retry) or accounted as lost — never forgotten.
        assert c.get("query_retries", 0) + c.get("queries_lost_crash", 0) \
            + c.get("queries_unfinished", 0) \
            >= c.get("queries_stranded_arrival", 0)
        assert result.invariants_checked
