"""Tests for ``repro.serve`` — the live asyncio QC gateway.

Three layers:

* **clock and client machinery** — ManualClock periodics, retry budget
  arithmetic (including the ``(1 + fraction) × offered`` storm bound);
* **the gateway** — completion, backpressure, shedding, brownout
  degradation, deadlines, supersession, forced shutdown, and the
  outcome-conservation law as a hypothesis property under concurrent
  enqueue / cancellation / shedding;
* **one core, two worlds** — the same ``SchedulerCore`` decision
  sequence on a hand-cranked ManualClock and on the DES's simulated
  clock, plus the wire protocol and the CLI entry points.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.admission import BrownoutAdmission, OverloadShedding
from repro.db.transactions import Query, TxnStatus, Update
from repro.qc.contracts import QualityContract
from repro.scheduling import DESClock, QUTSScheduler, make_scheduler
from repro.serve import (DEADLINE_FACTOR, OUTCOMES, GatewayConfig,
                         LoadgenConfig, ManualClock, MonotonicClock,
                         ProtocolError, QCGateway, RetryBudget,
                         RetryPolicy, build_schedule, drive, qc_from_wire,
                         qc_to_wire, run_cell, serve_tcp, summarize)
from repro.serve.cli import build_loadgen_parser, build_serve_parser
from repro.serve.protocol import decode_request, submit_from_wire
from repro.sim import Environment
from repro.sim.rng import StreamRegistry


def loose_qc(lifetime: float = 150_000.0) -> QualityContract:
    return QualityContract.step(30.0, 10_000.0, 20.0, 50.0,
                                lifetime=lifetime)


def tight_qc(rt_max: float = 20.0,
             lifetime: float = 150_000.0) -> QualityContract:
    return QualityContract.step(30.0, rt_max, 20.0, 1.0,
                                lifetime=lifetime)


# ----------------------------------------------------------------------
# Clocks
# ----------------------------------------------------------------------
class TestManualClock:
    def test_advance_fires_periodics_in_due_order(self):
        clock = ManualClock()
        fired = []
        clock.call_periodic(10.0, lambda now: fired.append(("a", now)),
                            name="a")
        clock.call_periodic(25.0, lambda now: fired.append(("b", now)),
                            name="b")
        clock.advance(50.0)
        # Ties (both due at 50) fire in registration order.
        assert fired == [("a", 10.0), ("a", 20.0), ("b", 25.0),
                         ("a", 30.0), ("a", 40.0), ("a", 50.0),
                         ("b", 50.0)]
        assert clock.now == 50.0

    def test_rejects_backwards_time_and_bad_periods(self):
        clock = ManualClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.call_periodic(0.0, lambda now: None, name="x")

    def test_monotonic_clock_advances(self):
        async def scenario():
            clock = MonotonicClock()
            first = clock.now
            await asyncio.sleep(0.01)
            assert clock.now > first

        asyncio.run(scenario())

    def test_monotonic_clock_runs_periodics(self):
        async def scenario():
            clock = MonotonicClock()
            fired = []
            clock.call_periodic(5.0, fired.append, name="tick")
            clock.start()
            await asyncio.sleep(0.05)
            await clock.stop()
            return fired

        fired = asyncio.run(scenario())
        assert len(fired) >= 2
        assert fired == sorted(fired)


# ----------------------------------------------------------------------
# Client retry machinery
# ----------------------------------------------------------------------
class TestRetryBudget:
    def test_storm_bound_holds_by_construction(self):
        # However hostile the server, total sends can never exceed
        # (1 + fraction) x first sends — the acceptance bound.
        budget = RetryBudget(fraction=0.1)
        offered = 500
        for _ in range(offered):
            budget.on_first_send()
            while budget.try_spend():  # retry as hard as possible
                pass
        assert budget.total_sends <= math.floor((1 + 0.1) * offered)
        assert budget.retries_denied > 0

    def test_tokens_accumulate_across_first_sends(self):
        budget = RetryBudget(fraction=0.5)
        budget.on_first_send()
        assert not budget.try_spend()  # 0.5 tokens: not enough
        budget.on_first_send()
        assert budget.try_spend()      # 1.0 tokens: one retry
        assert not budget.try_spend()

    def test_policy_backoff_is_bounded_and_jittered(self):
        rng = StreamRegistry(3).stream("test.retry")
        policy = RetryPolicy(rng, base_ms=10.0, factor=2.0,
                             max_backoff_ms=40.0, max_retries=5)
        for attempt in range(6):
            backoff = policy.backoff_ms(attempt)
            assert 0.0 <= backoff <= min(10.0 * 2 ** attempt, 40.0)

    def test_policy_respects_cap_then_budget(self):
        rng = StreamRegistry(3).stream("test.retry")
        budget = RetryBudget(fraction=1.0)
        policy = RetryPolicy(rng, max_retries=2, budget=budget)
        assert not policy.should_retry(2)          # cap first
        assert not policy.should_retry(0)          # budget dry (0 tokens)
        budget.on_first_send()
        assert policy.should_retry(0)              # 1 token earned


# ----------------------------------------------------------------------
# The gateway
# ----------------------------------------------------------------------
def gateway_scenario(coro_fn, **gateway_kwargs):
    """Run ``coro_fn(gateway)`` against a started gateway, always
    stopping it, inside a fresh event loop."""

    async def scenario():
        gateway = QCGateway(**gateway_kwargs)
        await gateway.start()
        try:
            return await coro_fn(gateway)
        finally:
            await gateway.stop()

    return asyncio.run(scenario())


class TestGateway:
    def test_query_and_update_complete(self):
        async def scenario(gateway):
            up = gateway.submit_update("S0001", 42.0, exec_ms=1.0)
            q = gateway.submit_query(("S0001",), loose_qc(), exec_ms=2.0)
            return await up, await q

        up_reply, q_reply = gateway_scenario(
            scenario, scheduler=make_scheduler("FIFO"))
        assert up_reply.outcome == "completed"
        assert q_reply.outcome == "completed"
        assert q_reply.qos_profit == 30.0
        assert q_reply.values == {"S0001": 42.0}
        assert q_reply.response_time_ms is not None
        assert q_reply.response_time_ms >= 2.0

    def test_backpressure_past_the_query_bound(self):
        async def scenario(gateway):
            first = gateway.submit_query(("S0001",), loose_qc(),
                                         exec_ms=30.0)
            await asyncio.sleep(0.01)  # let the executor pick it up
            queued = gateway.submit_query(("S0002",), loose_qc(),
                                          exec_ms=1.0)
            rejected = gateway.submit_query(("S0003",), loose_qc(),
                                            exec_ms=1.0)
            return await first, await queued, await rejected

        first, queued, rejected = gateway_scenario(
            scenario, scheduler=make_scheduler("FIFO"),
            config=GatewayConfig(max_pending_queries=1))
        assert first.outcome == "completed"
        assert queued.outcome == "completed"
        assert rejected.outcome == "backpressure"
        assert rejected.retry_after_ms is not None

    def test_admission_shedding(self):
        async def scenario(gateway):
            busy = gateway.submit_query(("S0001",), loose_qc(),
                                        exec_ms=30.0)
            await asyncio.sleep(0.01)
            queued = gateway.submit_query(("S0002",), loose_qc(),
                                          exec_ms=1.0)
            # Shedding is value-aware: only a cheap contract gets cut.
            cheap = QualityContract.step(1.0, 10_000.0, 0.5, 50.0)
            shed = gateway.submit_query(("S0003",), cheap, exec_ms=1.0)
            replies = (await busy, await queued, await shed)
            return replies, gateway.ledger.counters.value("queries_shed")

        replies, shed_count = gateway_scenario(
            scenario, scheduler=make_scheduler("FIFO"),
            admission=OverloadShedding(high_watermark=1, low_watermark=0))
        assert [r.outcome for r in replies] == \
            ["completed", "completed", "shed"]
        assert shed_count == 1

    def test_brownout_degrades_and_forfeits_qod(self):
        async def scenario(gateway):
            busy = gateway.submit_query(("S0001",), loose_qc(),
                                        exec_ms=30.0)
            await asyncio.sleep(0.01)
            queued = gateway.submit_query(("S0002",), loose_qc(),
                                          exec_ms=1.0)
            degraded = gateway.submit_query(("S0003",), loose_qc(),
                                            exec_ms=8.0)
            return await busy, await queued, await degraded

        busy, queued, degraded = gateway_scenario(
            scenario, scheduler=make_scheduler("FIFO"),
            admission=BrownoutAdmission(high_watermark=1, low_watermark=0))
        assert degraded.outcome == "completed"
        assert degraded.degraded
        assert degraded.qod_profit == 0.0
        assert degraded.qos_profit > 0.0
        assert not queued.degraded

    def test_expired_query_times_out(self):
        async def scenario(gateway):
            blocker = gateway.submit_update("S0001", 1.0, exec_ms=80.0)
            await asyncio.sleep(0.005)
            doomed = gateway.submit_query(("S0002",), tight_qc(rt_max=5.0),
                                          exec_ms=1.0)
            return await blocker, await doomed

        blocker, doomed = gateway_scenario(
            scenario, scheduler=make_scheduler("FIFO"),
            config=GatewayConfig(sweep_interval_ms=5.0))
        assert blocker.outcome == "completed"
        assert doomed.outcome == "timed_out"

    def test_baseline_never_cancels(self):
        async def scenario(gateway):
            blocker = gateway.submit_update("S0001", 1.0, exec_ms=60.0)
            await asyncio.sleep(0.005)
            late = gateway.submit_query(("S0002",), tight_qc(rt_max=5.0),
                                        exec_ms=1.0)
            return await blocker, await late

        blocker, late = gateway_scenario(
            scenario, scheduler=make_scheduler("FIFO"),
            config=GatewayConfig(deadline_factor=None, drop_expired=False))
        # The no-defenses arm still answers — far past rtmax, earning
        # nothing, which is exactly what the overload tier measures.
        assert late.outcome == "completed"
        assert late.qos_profit == 0.0

    def test_update_supersession(self):
        async def scenario(gateway):
            busy = gateway.submit_query(("S0009",), loose_qc(),
                                        exec_ms=30.0)
            await asyncio.sleep(0.01)
            stale = gateway.submit_update("S0005", 1.0, exec_ms=1.0)
            fresh = gateway.submit_update("S0005", 2.0, exec_ms=1.0)
            return await busy, await stale, await fresh

        _, stale, fresh = gateway_scenario(
            scenario, scheduler=make_scheduler("FIFO"))
        assert stale.outcome == "superseded"
        assert fresh.outcome == "completed"

    def test_stop_resolves_leftovers_unfinished(self):
        async def scenario():
            gateway = QCGateway(make_scheduler("FIFO"))
            await gateway.start()
            hopeless = gateway.submit_query(("S0001",), loose_qc(),
                                            exec_ms=10_000.0)
            await asyncio.sleep(0.01)
            await gateway.stop()
            return await hopeless

        reply = asyncio.run(scenario())
        assert reply.outcome == "unfinished"

    def test_preemption_requeues_the_running_txn(self):
        async def scenario(gateway):
            # QUTS with fixed rho 1.0 always prefers queries; a query
            # arriving mid-update preempts it at the next slice edge.
            update = gateway.submit_update("S0001", 1.0, exec_ms=20.0)
            await asyncio.sleep(0.008)
            query = gateway.submit_query(("S0001",), loose_qc(),
                                         exec_ms=1.0)
            q_reply = await query
            u_reply = await update
            return q_reply, u_reply

        q_reply, u_reply = gateway_scenario(
            scenario, scheduler=QUTSScheduler(fixed_rho=1.0),
            config=GatewayConfig(slice_ms=2.0))
        assert q_reply.outcome == "completed"
        assert u_reply.outcome == "completed"
        # The query finished while the longer, earlier update waited.
        assert q_reply.response_time_ms is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GatewayConfig(max_pending_queries=0)
        with pytest.raises(ValueError):
            GatewayConfig(slice_ms=0.0)
        with pytest.raises(ValueError):
            GatewayConfig(deadline_factor=-1.0)
        with pytest.raises(ValueError):
            GatewayConfig(cpu_speed=0.0)


# ----------------------------------------------------------------------
# Conservation: every submission gets exactly one terminal outcome
# ----------------------------------------------------------------------
REQUESTS = st.lists(
    st.tuples(
        st.sampled_from(["query", "query", "update"]),
        st.floats(min_value=0.0, max_value=2.0),    # pre-submit gap (ms)
        st.floats(min_value=0.2, max_value=5.0),    # exec_ms
        st.integers(min_value=0, max_value=2),      # key
        st.sampled_from([6.0, 25.0, 10_000.0]),     # rt_max
    ),
    min_size=1, max_size=18)


class TestOutcomeConservation:
    @settings(max_examples=20, deadline=None)
    @given(requests=REQUESTS)
    def test_no_request_lost_or_duplicated(self, requests):
        """Under concurrent enqueue, deadline cancellation, shedding,
        supersession, and backpressure, every offered request resolves
        to exactly one terminal outcome."""

        async def episode():
            gateway = QCGateway(
                make_scheduler("FIFO"),
                GatewayConfig(max_pending_queries=3,
                              max_pending_updates=3,
                              deadline_factor=2.0,
                              sweep_interval_ms=4.0),
                admission=OverloadShedding(high_watermark=2,
                                           low_watermark=0))
            await gateway.start()
            futures = []
            for kind, gap_ms, exec_ms, key, rt_max in requests:
                await asyncio.sleep(gap_ms / 1000.0)
                if kind == "query":
                    futures.append(gateway.submit_query(
                        (f"S{key:04d}",), tight_qc(rt_max=rt_max),
                        exec_ms))
                else:
                    futures.append(gateway.submit_update(
                        f"S{key:04d}", 1.0, exec_ms))
            await asyncio.wait(futures, timeout=5.0)
            await gateway.stop()  # stragglers resolve "unfinished"
            return [future.result() for future in futures]

        replies = asyncio.run(episode())
        assert len(replies) == len(requests)  # nothing lost
        counts = {outcome: 0 for outcome in OUTCOMES}
        for reply in replies:
            assert reply.outcome in OUTCOMES
            counts[reply.outcome] += 1
        assert sum(counts.values()) == len(requests)  # nothing duplicated


# ----------------------------------------------------------------------
# One core, two worlds
# ----------------------------------------------------------------------
def _drive_core(scheduler, advance):
    """Feed a fixed submission/pop script to ``scheduler``; ``advance``
    moves its world's clock to each decision instant."""
    script = []
    for step in range(12):
        now = float(step * 25)
        advance(now)
        if step % 3 != 2:
            query = Query(now, 4.0, ("S0001",), loose_qc())
            query.status = TxnStatus.QUEUED
            scheduler.submit_query(query)
        if step % 2 == 0:
            update = Update(now, 1.5, "S0002", 1.0)
            update.status = TxnStatus.QUEUED
            scheduler.submit_update(update)
        txn = scheduler.next_transaction(now)
        if txn is None:
            script.append(None)
            continue
        script.append(("query" if txn.is_query else "update",
                       txn.arrival_time))
        txn.end(TxnStatus.COMMITTED, now)
        if txn.is_query:
            scheduler.notify_query_finished(txn)
    return script, scheduler


class TestOneCoreTwoWorlds:
    def test_quts_decisions_match_on_manual_and_des_clocks(self):
        """The same QUTS core, bound once to a hand-cranked clock and
        once to the DES clock, makes bit-identical decisions — the
        refactor's whole point."""
        manual = QUTSScheduler(tau=30.0, omega=50.0)
        clock = ManualClock()
        manual.bind_clock(clock, StreamRegistry(11))
        manual_script, manual = _drive_core(
            manual, lambda t: clock.advance(t - clock.now))

        des = QUTSScheduler(tau=30.0, omega=50.0)
        env = Environment()
        des.bind_clock(DESClock(env), StreamRegistry(11))
        des_script, des = _drive_core(
            des, lambda t: env.run(until=t) if t > env.now else None)

        assert manual_script == des_script
        assert manual.rho == des.rho
        assert list(manual.rho_series.values) == \
            list(des.rho_series.values)

    def test_gateway_drives_the_des_scheduler_classes(self):
        # Every DES policy name serves live, unchanged.
        for policy in ("FIFO", "UH", "QH", "QUTS"):
            async def scenario(gateway):
                return await gateway.submit_query(
                    ("S0001",), loose_qc(), exec_ms=1.0)

            reply = gateway_scenario(
                scenario, scheduler=make_scheduler(policy))
            assert reply.outcome == "completed", policy


# ----------------------------------------------------------------------
# Wire protocol + TCP front
# ----------------------------------------------------------------------
class TestProtocol:
    def test_qc_round_trips(self):
        qc = tight_qc(rt_max=75.0, lifetime=5_000.0)
        wire = qc_to_wire(qc)
        back = qc_from_wire(wire)
        assert qc_to_wire(back) == wire

    def test_bad_wire_qc_raises(self):
        with pytest.raises(ProtocolError):
            qc_from_wire({"shape": "cubic"})
        with pytest.raises(ProtocolError):
            qc_from_wire({"shape": "step", "qos_max": "not a number"})

    def test_tcp_front_serves_queries_and_updates(self):
        async def scenario():
            gateway = QCGateway(make_scheduler("FIFO"))
            await gateway.start()
            server = await serve_tcp(gateway, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(json.dumps(
                {"op": "update", "id": 1, "item": "S0001",
                 "value": 7.5, "exec_ms": 1.0}).encode() + b"\n")
            writer.write(json.dumps(
                {"op": "query", "id": 2, "items": ["S0001"],
                 "exec_ms": 1.0,
                 "qc": qc_to_wire(loose_qc())}).encode() + b"\n")
            writer.write(b"this is not json\n")
            await writer.drain()
            replies = {}
            while len(replies) < 3:
                line = await asyncio.wait_for(reader.readline(), 5.0)
                reply = json.loads(line)
                replies[reply["id"]] = reply
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await gateway.stop()
            return replies

        replies = asyncio.run(scenario())
        assert replies[1]["outcome"] == "completed"
        assert replies[2]["outcome"] == "completed"
        assert replies[2]["values"] == {"S0001": 7.5}
        assert replies[None]["outcome"] == "error"

    def test_malformed_request_spares_the_connection_and_its_peers(self):
        """A request the gateway's objects would refuse (``exec_ms: 0``)
        is an ``error`` reply line, not a dead handler: the query in
        flight on the same connection still gets its answer."""
        async def scenario():
            gateway = QCGateway(make_scheduler("FIFO"))
            await gateway.start()
            server = await serve_tcp(gateway, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(json.dumps(
                {"op": "query", "id": 1, "items": ["S0001"],
                 "exec_ms": 50.0,
                 "qc": qc_to_wire(loose_qc())}).encode() + b"\n")
            writer.write(json.dumps(
                {"op": "update", "id": 2, "item": "S0001",
                 "value": 1.0, "exec_ms": 0}).encode() + b"\n")
            await writer.drain()
            lines = [await asyncio.wait_for(reader.readline(), 5.0)
                     for __ in range(2)]
            waiters_left = len(gateway._waiters)
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()
            await gateway.stop()
            return lines, waiters_left

        lines, waiters_left = asyncio.run(scenario())
        assert all(lines), "connection closed before both replies"
        replies = {reply["id"]: reply for reply in map(json.loads, lines)}
        assert replies[2]["outcome"] == "error"
        assert "exec_ms" in replies[2]["error"]
        assert replies[1]["outcome"] == "completed"
        assert waiters_left == 0

    @pytest.mark.parametrize("patch", [
        {"exec_ms": 0}, {"exec_ms": -1.0}, {"exec_ms": math.nan},
        {"exec_ms": math.inf}, {"items": []},
        {"qc": None}, {"qc": [30.0, 75.0]},
        {"qc": {"rt_max": math.nan}}, {"qc": {"uu_max": math.nan}},
        {"qc": {"qos_max": math.nan}}, {"qc": {"qod_max": math.inf}},
        {"qc": {"qos_max": -30.0}}, {"qc": {"rt_max": -1.0}},
        {"qc": {"lifetime_ms": 0.0}}, {"qc": {"lifetime_ms": math.nan}},
    ], ids=repr)
    def test_bad_query_numbers_never_reach_the_gateway(self, patch):
        request = {"op": "query", "id": 9, "items": ["S0001"],
                   "exec_ms": 2.0, "qc": qc_to_wire(tight_qc())}
        if isinstance(patch.get("qc"), dict):
            request["qc"] = {**request["qc"], **patch["qc"]}
        else:
            request.update(patch)
        self._assert_refused(request)

    @pytest.mark.parametrize("patch", [
        {"exec_ms": 0}, {"exec_ms": -2.0}, {"exec_ms": math.nan},
        {"exec_ms": math.inf}, {"value": math.nan},
        {"value": -math.inf},
    ], ids=repr)
    def test_bad_update_numbers_never_reach_the_gateway(self, patch):
        self._assert_refused({"op": "update", "id": 9, "item": "S0001",
                              "value": 1.0, "exec_ms": 1.0, **patch})

    @staticmethod
    def _assert_refused(request):
        # Through the codec, as the TCP front sees it: ``json`` both
        # writes and parses NaN / Infinity.
        line = json.dumps(request).encode()

        async def scenario(gateway):
            before = gateway.ledger.total_max
            with pytest.raises(ProtocolError):
                submit_from_wire(gateway, decode_request(line))
            return (before, gateway.ledger.total_max,
                    dict(gateway._waiters),
                    gateway.ledger.counters.as_dict())

        before, after, waiters, counters = gateway_scenario(
            scenario, scheduler=make_scheduler("QUTS"))
        assert after == before == 0.0
        assert waiters == {}
        assert not any(counters.values())


# ----------------------------------------------------------------------
# The load harness
# ----------------------------------------------------------------------
class TestLoadgen:
    def test_schedule_is_deterministic_and_open_loop(self):
        config = LoadgenConfig(duration_ms=500.0)
        first = build_schedule(config)
        second = build_schedule(config)

        def fingerprint(schedule):
            return [(a.at_ms, a.kind, a.items, a.exec_ms, a.value,
                     repr(a.qc)) for a in schedule]

        assert fingerprint(first) == fingerprint(second)
        assert all(a.at_ms <= b.at_ms for a, b in zip(first, first[1:]))
        assert {a.kind for a in first} == {"query", "update"}

    def test_multiplier_scales_the_offered_load(self):
        base = build_schedule(LoadgenConfig(duration_ms=1_000.0))
        heavy = build_schedule(LoadgenConfig(duration_ms=1_000.0,
                                             rate_multiplier=4.0))
        assert len(heavy) > 2.5 * len(base)

    def test_correctness_tier_conserves_requests(self):
        config = LoadgenConfig(duration_ms=300.0, master_seed=5)
        report = run_cell("FIFO", defended=True, admission="brownout",
                          config=config)
        offered = report["offered_queries"]
        assert offered > 0
        assert sum(report["outcomes"].values()) == offered
        assert report["outcomes"]["completed"] > 0
        assert 0.0 <= report["goodput"] <= 1.0
        assert report["response_time_ms"]["p50"] is not None

    def test_retry_storm_is_bounded(self):
        """Acceptance: total client sends <= (1 + budget fraction) x
        offered load, even under heavy shedding."""
        config = LoadgenConfig(duration_ms=500.0, rate_multiplier=8.0,
                               retry_fraction=0.1)
        report = run_cell("FIFO", defended=True, admission="shed",
                          config=config)
        offered = report["offered_queries"] + report["offered_updates"]
        assert report["client_sends"] > offered  # retries did happen
        assert report["client_sends"] <= math.floor(1.1 * offered) + 1

    def test_baseline_cell_disables_every_defense(self):
        config = LoadgenConfig(duration_ms=300.0)
        report = run_cell("FIFO", defended=False, config=config)
        offered = report["offered_queries"]
        outcomes = report["outcomes"]
        assert outcomes["shed"] == 0
        assert outcomes["backpressure"] == 0
        assert outcomes["timed_out"] == 0
        assert sum(outcomes.values()) == offered

    def test_summarize_handles_an_empty_cell(self):
        async def scenario():
            gateway = QCGateway(make_scheduler("FIFO"))
            await gateway.start()
            try:
                return summarize(
                    await drive(gateway, [],
                                LoadgenConfig(duration_ms=10.0)),
                    gateway)
            finally:
                await gateway.stop()

        report = asyncio.run(scenario())
        assert report["offered_queries"] == 0
        assert report["goodput"] == 0.0
        assert report["response_time_ms"]["p50"] is None


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestServeCli:
    def test_parser_defaults(self):
        args = build_serve_parser().parse_args([])
        assert args.policy == "QUTS"
        assert args.admission == "brownout"
        assert args.port == 8642
        args = build_loadgen_parser().parse_args(["--multiplier", "2.5"])
        assert args.multiplier == 2.5
        assert args.duration_ms == 2_500.0

    def test_loadgen_main_prints_a_report(self, capsys):
        from repro.cli import main
        exit_code = main(["loadgen", "--duration-ms", "250",
                          "--policy", "FIFO", "--retry-fraction", "-1"])
        assert exit_code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["policy"] == "FIFO"
        assert report["defended"] is True
        assert sum(report["outcomes"].values()) == \
            report["offered_queries"]

    def test_deadline_factor_constant_is_shared(self):
        # The report-side deadline and the server default must agree,
        # or the two overload arms would be scored on different sticks.
        assert GatewayConfig().deadline_factor == DEADLINE_FACTOR
