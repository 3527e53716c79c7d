"""The lock manager's one rule, checked against the full 2PL-HP rule.

2PL-HP restarts a conflicting holder when the requester outranks it and
makes the requester wait otherwise.  ``repro.db.locks.LockManager`` keeps
only the first half: on one CPU the dispatched transaction outranks every
holder the CPU has left.  These tests run randomized traces through
``run_simulation`` under every policy and, at every conflict the
lock manager meets, assert that

* the policy's own 2PL-HP priority (``tests/lock_reference.py``) says the
  requester outranks the holder, so a waiting requester was never due;
* the holder is alive and off the CPU;
* the manager restarts exactly the conflicting holders.
"""

import dataclasses
import unittest.mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.locks import LockManager, LockMode
from repro.db.server import ServerConfig
from repro.db.transactions import TxnStatus
from repro.experiments.runner import run_simulation
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec
from tests.lock_reference import lock_priority

POLICIES = ("FIFO", "UH", "QH", "QUTS", "FIFO-UH", "FIFO-QH",
            "QUTS-inherit")


def run_checked(policy, update_preemption, tau, seed, n_stocks,
                duration_ms, switch_overhead):
    """Run one trace with every ``acquire_all`` checked; returns the
    number of conflicting holders met."""
    spec = dataclasses.replace(WorkloadSpec().scaled(duration_ms),
                               n_stocks=n_stocks)
    trace = StockWorkloadGenerator(spec, master_seed=seed).generate()
    scheduler = (make_scheduler(policy, tau=tau)
                 if policy.startswith("QUTS") else make_scheduler(policy))
    original = LockManager.acquire_all
    met = []

    def checked_acquire_all(locks, txn, mode):
        conflicting = set()
        for key in txn.touched_items():
            held = locks.mode_of(key)
            if held is None or (held is LockMode.READ
                                and mode is LockMode.READ):
                continue
            holders = locks.holders_of(key)
            if holders != {txn}:
                conflicting |= holders - {txn}
        for holder in conflicting:
            assert lock_priority(scheduler, txn, holder), (txn, holder)
            assert holder.alive, holder
            assert holder.status is not TxnStatus.RUNNING, holder
        result = original(locks, txn, mode)
        assert set(result.restarted) == conflicting
        assert result.blocking_holders == ()
        met.append(len(conflicting))
        return result

    config = ServerConfig(update_preemption=update_preemption,
                          class_switch_overhead=switch_overhead)
    with unittest.mock.patch.object(LockManager, "acquire_all",
                                    checked_acquire_all):
        run_simulation(scheduler, trace, QCFactory.balanced(),
                       master_seed=seed, server_config=config)
    assert met, "no lock was ever requested"
    return sum(met)


@given(policy=st.sampled_from(POLICIES),
       update_preemption=st.sampled_from(["restart", "suspend"]),
       tau=st.sampled_from([1.0, 50.0]),
       seed=st.integers(min_value=0, max_value=2**16),
       n_stocks=st.integers(min_value=2, max_value=16),
       duration_ms=st.floats(min_value=300.0, max_value=4_000.0),
       switch_overhead=st.sampled_from([0.0, 0.1, 3.0]))
@settings(max_examples=150, deadline=None)
def test_every_conflict_is_one_the_requester_wins(
        policy, update_preemption, tau, seed, n_stocks, duration_ms,
        switch_overhead):
    run_checked(policy, update_preemption, tau, seed, n_stocks,
                duration_ms, switch_overhead)


@pytest.mark.parametrize("policy, update_preemption", [
    ("UH", "restart"), ("QH", "suspend"), ("QUTS", "restart")])
def test_the_check_meets_conflicts(policy, update_preemption):
    # The property above is not vacuous: a contended trace does reach
    # the conflict branch under each policy that suspends work.
    assert run_checked(policy, update_preemption, tau=1.0, seed=3,
                       n_stocks=4, duration_ms=2_000.0,
                       switch_overhead=0.1) > 0
