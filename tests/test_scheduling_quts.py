"""Unit + property tests for the QUTS two-level scheduler."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.transactions import Query, Update
from repro.qc.contracts import QualityContract
from repro.scheduling.quts import QUTSScheduler, optimal_rho
from repro.sim import Environment
from repro.sim.rng import StreamRegistry
from tests.lock_reference import lock_priority


def query(at=0.0, qosmax=10.0, qodmax=10.0, rtmax=50.0):
    return Query(arrival_time=at, exec_time=5.0, items=("A",),
                 qc=QualityContract.step(qosmax, rtmax, qodmax, 1.0))


def update(at=0.0, item="A"):
    return Update(arrival_time=at, exec_time=1.0, item=item)


def bound_scheduler(**kwargs):
    scheduler = QUTSScheduler(**kwargs)
    env = Environment()
    scheduler.bind(env, StreamRegistry(0))
    return env, scheduler


class TestOptimalRho:
    def test_equation_4_examples(self):
        # QOSmax = QODmax -> rho = 1 (0.5 + 0.5).
        assert optimal_rho(1.0, 1.0) == 1.0
        # 1:5 QoS:QoD -> 0.1 + 0.5 = 0.6 (the Figure 9d low phase).
        assert optimal_rho(1.0, 5.0) == pytest.approx(0.6)
        # QoS-heavy clamps at 1.
        assert optimal_rho(5.0, 1.0) == 1.0

    def test_zero_qod_gives_one(self):
        assert optimal_rho(3.0, 0.0) == 1.0

    def test_minimum_is_half(self):
        """§4.1: 'the minimal value of rho is actually 0.5'."""
        assert optimal_rho(0.0, 100.0) == pytest.approx(0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            optimal_rho(-1.0, 1.0)

    @given(st.floats(min_value=0.0, max_value=1e6),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200)
    def test_rho_in_half_one(self, qos, qod):
        rho = optimal_rho(qos, qod)
        assert 0.5 <= rho <= 1.0

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=200)
    def test_maximises_model_profit(self, qos, qod):
        """Eq. 4 really is the argmax of Eq. 3 over [0, 1]."""
        rho_star = optimal_rho(qos, qod)

        def profit(rho):
            return qos * rho + qod * rho * (1.0 - rho)

        best = profit(rho_star)
        for step in range(101):
            rho = step / 100.0
            assert profit(rho) <= best + 1e-9


class TestParameters:
    def test_defaults_match_table3(self):
        scheduler = QUTSScheduler()
        assert scheduler.tau == 10.0
        assert scheduler.omega == 1000.0

    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0}, {"omega": -1.0}, {"alpha": 0.0}, {"alpha": 1.5},
        {"initial_rho": -0.1}, {"initial_rho": 1.1},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            QUTSScheduler(**kwargs)


class TestAdaptation:
    def test_rho_moves_toward_qos_heavy(self):
        env, scheduler = bound_scheduler(alpha=0.5, initial_rho=0.5)
        scheduler.submit_query(query(qosmax=50.0, qodmax=1.0))
        env.run(until=1001.0)  # one adaptation period
        assert scheduler.rho > 0.5

    def test_rho_converges_to_formula(self):
        env, scheduler = bound_scheduler(alpha=0.5, initial_rho=0.5,
                                         omega=100.0)

        def feeder(env):
            while True:
                scheduler.submit_query(query(at=env.now, qosmax=10.0,
                                             qodmax=50.0))
                # Drain so the queue does not grow unboundedly.
                scheduler.next_transaction(env.now)
                yield env.timeout(10.0)

        env.process(feeder(env))
        env.run(until=5000.0)
        assert scheduler.rho == pytest.approx(optimal_rho(10.0, 50.0),
                                              abs=0.02)

    def test_rho_unchanged_without_submissions(self):
        env, scheduler = bound_scheduler(initial_rho=0.7)
        env.run(until=3000.0)
        assert scheduler.rho == 0.7
        # ... but the trajectory is still recorded each period.
        assert len(scheduler.rho_series) == 3

    def test_aging_smooths(self):
        """With a small alpha, one period cannot jump rho to the target."""
        env, scheduler = bound_scheduler(alpha=0.1, initial_rho=0.5)
        scheduler.submit_query(query(qosmax=100.0, qodmax=1.0))
        env.run(until=1001.0)
        assert 0.5 < scheduler.rho < 0.6

    def test_fixed_rho_disables_adaptation(self):
        env, scheduler = bound_scheduler(fixed_rho=0.5)
        scheduler.submit_query(query(qosmax=100.0, qodmax=1.0))
        env.run(until=5000.0)
        assert scheduler.rho == 0.5
        assert len(scheduler.rho_series) == 0

    def test_requeue_not_double_counted(self):
        env, scheduler = bound_scheduler(alpha=1.0)
        q = query(qosmax=10.0, qodmax=10.0)
        scheduler.submit_query(q)
        scheduler.requeue(q)  # preemption path must not re-count the QC
        assert scheduler._period_qos_max == 10.0
        assert scheduler._period_qod_max == 10.0


class TestSlotMachine:
    def test_rho_one_always_picks_queries(self):
        env, scheduler = bound_scheduler(fixed_rho=1.0)
        q, u = query(), update()
        scheduler.submit_query(q)
        scheduler.submit_update(u)
        assert scheduler.next_transaction(env.now) is q
        assert scheduler.current_state == "query"

    def test_rho_zero_always_picks_updates(self):
        env, scheduler = bound_scheduler(fixed_rho=0.0)
        q, u = query(), update()
        scheduler.submit_query(q)
        scheduler.submit_update(u)
        assert scheduler.next_transaction(env.now) is u
        assert scheduler.current_state == "update"

    def test_empty_chosen_queue_borrows_other(self):
        env, scheduler = bound_scheduler(fixed_rho=1.0)
        u = update()
        scheduler.submit_update(u)
        assert scheduler.next_transaction(env.now) is u
        # The state flipped to the class actually being served.
        assert scheduler.current_state == "update"

    def test_both_empty_returns_none(self):
        env, scheduler = bound_scheduler()
        assert scheduler.next_transaction(env.now) is None

    def test_quantum_is_remaining_slot(self):
        env, scheduler = bound_scheduler(fixed_rho=1.0, tau=10.0)
        q = query()
        scheduler.submit_query(q)
        scheduler.next_transaction(0.0)  # draws a slot [0, 10)
        assert scheduler.quantum(q, 4.0) == pytest.approx(6.0)

    def test_expired_slot_redraws_before_granting(self):
        """Regression: an expired slot used to grant a full fresh ``tau``
        without re-drawing the owner, letting one class overrun its time
        share.  Now the owner is re-drawn at the boundary."""
        env, scheduler = bound_scheduler(fixed_rho=1.0, tau=10.0)
        q = query()
        scheduler.submit_query(q)
        scheduler.next_transaction(0.0)
        # Slot expired exactly at the boundary: redraw (rho=1 -> query
        # again), fresh slot [10, 20).
        assert scheduler.quantum(q, 10.0) == pytest.approx(10.0)
        # Mid-slot of the re-drawn slot: only the remainder is granted.
        assert scheduler.quantum(q, 12.0) == pytest.approx(8.0)

    def test_expired_slot_lost_to_other_class_gives_zero_quantum(self):
        """If the re-drawn slot belongs to the other class, the running
        transaction gets a zero quantum (it must yield the CPU)."""
        env, scheduler = bound_scheduler(fixed_rho=0.0, tau=10.0)
        q = query()
        scheduler.submit_query(q)
        scheduler._switch_state("query", 0.0)  # force a query slot
        assert scheduler.quantum(q, 15.0) == 0.0
        assert scheduler.current_state == "update"
        # The scheduler's next decision then serves the slot owner.
        u = update()
        scheduler.submit_update(u)
        assert scheduler.next_transaction(16.0) is u

    def test_quantum_positive_within_slot(self):
        env, scheduler = bound_scheduler(fixed_rho=1.0, tau=10.0)
        q = query()
        scheduler.submit_query(q)
        scheduler.next_transaction(0.0)
        for now in (0.0, 4.0, 9.999):
            assert scheduler.quantum(q, now) > 0.0

    def test_never_preempts_mid_slot(self):
        env, scheduler = bound_scheduler()
        assert not scheduler.preempts(query(), update())
        assert not scheduler.preempts(update(), query())

    def test_state_redrawn_after_tau(self):
        env, scheduler = bound_scheduler(fixed_rho=0.5, tau=10.0)
        for k in range(50):
            scheduler.submit_query(query(at=0.0))
            scheduler.submit_update(update(at=0.0))
        states = set()
        now = 0.0
        for __ in range(40):
            txn = scheduler.next_transaction(now)
            assert txn is not None
            states.add(scheduler.current_state)
            now += 10.0
        # With rho=0.5 and both queues full, both states must occur.
        assert states == {"query", "update"}

    def test_slot_time_share_tracks_rho_under_saturation(self):
        """With both classes saturated, the fraction of CPU time spent in
        query slots must stay within ~ρ ± tolerance (the quantum fix:
        expired slots redraw instead of granting a free full τ)."""
        env, scheduler = bound_scheduler(fixed_rho=0.7, tau=10.0)
        scheduler.submit_query(query())
        scheduler.submit_update(update())
        now = query_ms = total_ms = 0.0
        for __ in range(4000):
            txn = scheduler.next_transaction(now)
            grant = scheduler.quantum(txn, now)
            scheduler.requeue(txn)  # keep both queues saturated
            if grant <= 0:
                continue  # lost the re-drawn slot; decide again
            if txn.is_query:
                query_ms += grant
            total_ms += grant
            now += grant
        assert query_ms / total_ms == pytest.approx(0.7, abs=0.05)

    def test_quantum_redraw_preserves_time_share(self):
        """A transaction that keeps arriving at expired slot boundaries
        wins the redraw with probability ρ — it cannot monopolise the CPU
        the way the old grant-a-fresh-τ behaviour allowed."""
        env, scheduler = bound_scheduler(fixed_rho=0.6, tau=10.0)
        q = query()
        scheduler.submit_query(q)
        scheduler.next_transaction(0.0)
        now = scheduler._state_until  # always arrive exactly at a boundary
        wins = 0
        trials = 3000
        for __ in range(trials):
            grant = scheduler.quantum(q, now)
            if grant > 0:
                wins += 1
                now += grant  # ran to the end of its slot
            else:
                now = scheduler._state_until  # other class used the slot
        assert wins / trials == pytest.approx(0.6, abs=0.05)

    def test_xi_draw_respects_rho_statistically(self):
        env, scheduler = bound_scheduler(fixed_rho=0.8, tau=10.0)
        picks = {"query": 0, "update": 0}
        now = 0.0
        for k in range(2000):
            scheduler.submit_query(query(at=now))
            scheduler.submit_update(update(at=now))
            txn = scheduler.next_transaction(now)
            picks["query" if txn.is_query else "update"] += 1
            now += 10.0
        fraction = picks["query"] / sum(picks.values())
        assert fraction == pytest.approx(0.8, abs=0.03)


class TestLockPriority:
    """The 2PL-HP priority QUTS induces (the census oracle; the lock
    manager itself restarts every conflicting holder)."""

    def test_slot_owner_wins(self):
        env, scheduler = bound_scheduler(fixed_rho=1.0)
        q, u = query(), update()
        scheduler.submit_query(q)
        scheduler.next_transaction(0.0)  # query state
        assert lock_priority(scheduler, q, u)
        assert not lock_priority(scheduler, u, q)

    def test_same_class_requester_wins(self):
        env, scheduler = bound_scheduler(fixed_rho=1.0)
        q1, q2 = query(), query()
        scheduler.submit_query(q1)
        scheduler.next_transaction(0.0)
        assert lock_priority(scheduler, q1, q2)
