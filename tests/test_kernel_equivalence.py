"""Equivalence of the production kernel and its plain-heap specification.

:class:`~repro.sim.environment.Environment` (binary heap, inlined
``timeout``, NaN refusal) and
:class:`tests.kernel_reference.HeapEnvironment` (the same queue written
the obvious way, kept as the executable specification) implement one
contract: events dispatch in exact ``(time, priority, eid)`` order.  The
property test here drives both through identical random operation
programs — timeouts with same-millisecond ties, explicit schedules at
every priority, chained timeouts fired *from callbacks* (which land at
or just after the time being dispatched), single steps, partial
``run(until=...)`` horizons (which leave entries pending across runs),
infinite delays (which must sort after every finite entry) and
``advance`` fast-forwards (refused at a tie with the head) — and
requires the observed dispatch logs, ``advance`` answers and eid
consumption to match element for element.

The ledger check then does the same at full-stack fidelity: one fig5
policy run per kernel, compared on every number a figure could hinge on.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.runner as runner_mod
from repro.experiments.figures import _policy_run_task
from repro.qc.generator import QCFactory
from repro.sim import Environment
from repro.sim.errors import EventLifecycleError
from repro.sim.events import Event
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec
from tests.kernel_reference import HeapEnvironment

#: Delays chosen to tie within a millisecond, to straddle millisecond
#: edges, to skip far ahead, and to sit at ``+inf``.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0,
                          999.5, float("inf")])
#: Delay of a timeout scheduled *from the firing callback* (lands at or
#: after the time being dispatched), or None for no chaining.
CHAIN_DELAYS = st.one_of(st.none(), st.sampled_from([0.0, 0.25, 1.0]))
#: ``advance`` targets: the timeout delays (ties with pending entries
#: and ``+inf`` must be refused) plus NaN and a negative delay.
ADVANCE_DELAYS = st.one_of(DELAYS, st.sampled_from([float("nan"), -1.0]))
#: Event_URGENT, Event_NORMAL, and the until-stop priority.
PRIORITIES = st.sampled_from([0, 1, 2])

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), DELAYS, CHAIN_DELAYS),
        st.tuples(st.just("schedule"),
                  st.sampled_from([0.0, 0.5, 1.0, 10.0]), PRIORITIES),
        st.tuples(st.just("step")),
        st.tuples(st.just("until"), st.sampled_from([0.5, 1.0, 2.5])),
        st.tuples(st.just("advance"), ADVANCE_DELAYS),
    ),
    max_size=60,
)


def _execute(env_cls, operations):
    """Run one operation program; return the observed dispatch log, the
    number of eids consumed and the number of fast-forwards.

    Every scheduled event carries a unique tag and appends
    ``(now, tag)`` when dispatched, so two kernels agree on the log iff
    they pop identical (time, priority, eid, event) sequences.
    """
    env = env_cls()
    log: list[tuple[float, object]] = []

    def note(event):
        log.append((env.now, event._value))

    for i, operation in enumerate(operations):
        kind = operation[0]
        if kind == "timeout":
            __, delay, chain_delay = operation
            event = env.timeout(delay, value=("t", i))
            if chain_delay is None:
                event.callbacks.append(note)
            else:
                def fire(event, chain_delay=chain_delay, i=i):
                    note(event)
                    chained = env.timeout(chain_delay, value=("c", i))
                    chained.callbacks.append(note)

                event.callbacks.append(fire)
        elif kind == "schedule":
            __, delay, priority = operation
            event = Event(env)
            event._ok = True
            event._value = ("s", i)
            event.callbacks.append(note)
            env.schedule(event, delay=delay, priority=priority)
        elif kind == "advance":
            log.append((env.now, ("a", i, env.advance(operation[1]))))
        elif kind == "step":
            try:
                env.step()
            except EventLifecycleError:
                pass  # empty queue: legal no-op in the program
        elif env.now != float("inf"):  # "until"
            # (Once an inf-timeout has been stepped, the stop event's
            # delay inf - inf is NaN — the production kernel rejects
            # that loudly where the reference silently accepts a
            # NaN-timed entry; neither is a dispatch order to compare.)
            env.run(until=env.now + operation[1])
    env.run()
    # The eids consumed (one per timeout, schedule and fast-forward).
    return log, next(env._eid), env.fast_forwards


@given(OPERATIONS)
@settings(max_examples=200, deadline=None)
def test_calendar_and_heap_dispatch_identically(operations):
    assert (_execute(Environment, operations)
            == _execute(HeapEnvironment, operations))


def test_peek_and_step_agree_on_ties():
    """Same-ms ties: peek/step must walk both queues identically."""
    logs = []
    for env_cls in (Environment, HeapEnvironment):
        env = env_cls()
        for delay in (1.25, 1.75, 1.25, 0.5, 1.0):
            env.timeout(delay, value=delay)
        seen = []
        while env.peek() != float("inf"):
            at = env.peek()
            env.step()
            seen.append((at, env.now))
        logs.append(seen)
    assert logs[0] == logs[1]
    assert logs[0] == [(0.5, 0.5), (1.0, 1.0), (1.25, 1.25),
                       (1.25, 1.25), (1.75, 1.75)]


# ----------------------------------------------------------------------
# Full-stack ledger identity (fig5 fidelity)
# ----------------------------------------------------------------------
def _ledger(result) -> bytes:
    rho = (None if result.rho_series is None
           else tuple(result.rho_series.items()))
    return pickle.dumps((result.scheduler_name, result.qos_percent,
                         result.qod_percent, result.total_percent,
                         result.mean_response_time, result.mean_staleness,
                         sorted(result.counters.items()), rho))


@pytest.mark.parametrize("policy", ["QH", "QUTS"])
def test_fig5_ledger_bit_identical_across_kernels(policy, monkeypatch):
    trace = StockWorkloadGenerator(WorkloadSpec().scaled(20_000.0),
                                   master_seed=7).generate()
    factory = QCFactory.balanced()
    new_queue = _policy_run_task(policy, trace, factory, 3)
    monkeypatch.setattr(runner_mod, "Environment", HeapEnvironment)
    old_queue = _policy_run_task(policy, trace, factory, 3)
    assert _ledger(new_queue) == _ledger(old_queue)
