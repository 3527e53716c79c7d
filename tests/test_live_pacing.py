"""The live executor's pacing rule, checked without a host clock.

``QCGateway._run`` lays CPU slices end to end on the modelled CPU's own
timeline and sleeps to each slice's *absolute* end
(``clock.sleep_until``), so a late wake-up is repaid by the next,
shorter sleep instead of pushing all later work back.  On the
:class:`~tests.scripted_clock.ScriptedClock` every timer overshoot is
scripted and every timestamp exact, so the rule can be stated as
arithmetic: with ``C_k = max(C_{k-1}, a_k) + s_k`` the ideal
single-server (Lindley) completion of the k-th FIFO transaction,

* ``finish_k >= a_k + s_k`` — never early, and an idle CPU banks no
  credit;
* ``0 <= finish_k - C_k <= `` the largest single overshoot — the
  lateness of *one* timer wake-up (the sleep that targeted ``C_k``, or
  what is left of an earlier, longer one), never the sum of several.

Chained relative sleeps (``sleep_until(now + slice_ms)``, the rule this
replaced) fail both bounded-lateness tests below: 200 back-to-back 1 ms
updates finish ~195 ms late.

Also here: the clocks' ``sleep_until`` / periodic contracts, and one
real-clock smoke that the modelled CPU runs at its rated speed.
"""

from __future__ import annotations

import asyncio
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qc.contracts import QualityContract
from repro.scheduling import DESClock, make_scheduler
from repro.serve import (GatewayConfig, LoadgenConfig, ManualClock,
                         MonotonicClock, QCGateway, run_cell)
from repro.sim import Environment
from repro.telemetry.hooks import TelemetrySession
from tests.scripted_clock import ScriptedClock, run_scripted

EXECUTOR = "gw-executor"


def run_fifo_updates(script, overshoots):
    """Run ``script`` — ``(gap_ms, exec_ms)`` per update, distinct keys,
    gaps between submissions — through a FIFO gateway on a scripted
    host.  Returns the clock, one ``[arrival, exec_ms, finish]`` row per
    update in submission (= service) order, and the gateway."""
    clock = ScriptedClock(overshoots)

    async def scenario():
        gateway = QCGateway(make_scheduler("FIFO"), clock=clock)
        await gateway.start()
        rows, futures = [], []
        for index, (gap_ms, exec_ms) in enumerate(script):
            if gap_ms > 0.0:
                await clock.sleep_until(clock.now + gap_ms)
            row = [clock.now, exec_ms, None]
            future = gateway.submit_update(f"S{index:04d}", 1.0, exec_ms)
            # Time stands still until every task sleeps, so the done
            # callback still reads the commit instant.
            future.add_done_callback(
                lambda _, row=row: row.__setitem__(2, clock.now))
            rows.append(row)
            futures.append(future)
        replies = await asyncio.gather(*futures)
        await gateway.stop()
        assert all(reply.outcome == "completed" for reply in replies)
        for (arrival, _, finish), reply in zip(rows, replies):
            assert reply.response_time_ms == finish - arrival
        return rows, gateway

    rows, gateway = run_scripted(clock, scenario())
    return clock, rows, gateway


def lindley(rows):
    """Ideal completion instants of a unit-rate FIFO server."""
    done, completions = 0.0, []
    for arrival, exec_ms, _ in rows:
        done = max(done, arrival) + exec_ms
        completions.append(done)
    return completions


def assert_paced(clock, rows, overshoots):
    """Every finish is its Lindley completion plus at most one scripted
    overshoot, and the executor slept to exactly those completions."""
    targets = [wake.at_ms for wake in clock.wakes if wake.task == EXECUTOR]
    for (arrival, exec_ms, finish), ideal in zip(rows, lindley(rows)):
        assert finish >= arrival + exec_ms - 1e-9   # never early
        assert -1e-9 <= finish - ideal <= max(overshoots) + 1e-9
        assert any(abs(at_ms - ideal) < 1e-9 for at_ms in targets)


class TestExecutorPacing:
    def test_back_to_back_updates_do_not_accumulate_overshoot(self):
        overshoots = (0.3, 1.1, 0.0, 2.5)
        clock, rows, gateway = run_fifo_updates(
            [(0.0, 1.0)] * 200, overshoots)
        assert_paced(clock, rows, overshoots)
        for k, (_, _, finish) in enumerate(rows, start=1):
            assert 0.0 <= finish - k * 1.0 <= max(overshoots)
        # The modelled CPU served exactly at its rated speed.
        assert gateway.cpu.slices == 200
        assert gateway.cpu.lag_max_ms <= max(overshoots)
        assert gateway.cpu.charged_ms / gateway.cpu.busy_wall_ms \
            == pytest.approx(1.0, abs=0.02)

    @settings(max_examples=60, deadline=None)
    @given(script=st.lists(
               st.tuples(st.sampled_from([0.0, 0.0, 0.4, 1.0, 3.7, 60.0]),
                         st.sampled_from([0.2, 1.0, 2.5, 5.0, 7.3, 12.0])),
               min_size=1, max_size=25),
           overshoots=st.lists(
               st.sampled_from([0.0, 0.05, 0.3, 1.1, 2.5, 9.0]),
               min_size=1, max_size=7))
    def test_finish_is_lindley_plus_one_overshoot(self, script, overshoots):
        # exec_ms above GatewayConfig.slice_ms (5 ms) runs multi-slice.
        clock, rows, _ = run_fifo_updates(script, overshoots)
        assert_paced(clock, rows, overshoots)

    def test_idle_cpu_banks_no_credit(self):
        clock, rows, _ = run_fifo_updates(
            [(0.0, 1.0), (0.0, 1.0), (50.0, 2.0), (0.0, 2.0)], (0.25,))
        assert_paced(clock, rows, (0.25,))
        (_, _, first), (_, _, second), third, fourth = rows
        assert (first, second) == (1.25, 2.25)
        # 50 ms of idle later the timeline restarts at the arrival.
        assert third[0] == pytest.approx(50.25)
        assert third[2] == third[0] + 2.0 + 0.25
        assert fourth[2] == third[0] + 4.0 + 0.25

    def test_slice_spans_tile_the_busy_period(self):
        """The telemetry ``cpu_slice`` spans are the modelled intervals:
        end to end, no gaps, no overlap, summing to charged service."""
        clock = ScriptedClock((0.4, 1.3))
        telemetry = TelemetrySession()

        async def scenario():
            gateway = QCGateway(make_scheduler("FIFO"), clock=clock,
                                telemetry=telemetry)
            await gateway.start()
            await asyncio.gather(*(
                gateway.submit_update(f"S{i:04d}", 1.0, 7.0)
                for i in range(6)))
            await gateway.stop()

        run_scripted(clock, scenario())
        spans = [(span.ts, span.ts + span.dur)
                 for span in telemetry.tracer.spans()
                 if span.track == "gateway/cpu"]
        assert len(spans) == 12                      # 5 ms + 2 ms each
        assert spans[0][0] == 0.0
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start == pytest.approx(end, abs=1e-9)
        assert spans[-1][1] == pytest.approx(42.0)


class TestLiveLedger:
    def test_profit_buckets_grow_with_uptime_not_requests(self):
        """The gateway's ledger keeps one bucket per second of uptime
        (Figure 9's per-second totals), however many queries it serves:
        600 queries over ~3 s of scripted time leave at most 4."""
        clock = ScriptedClock((0.1,))
        qc = QualityContract.step(3.0, 50.0, 1.0, 10.0)

        async def scenario():
            gateway = QCGateway(make_scheduler("FIFO"), clock=clock)
            await gateway.start()
            futures = []
            for index in range(600):
                await clock.sleep_until(clock.now + 5.0)
                futures.append(gateway.submit_query(
                    (f"S{index % 50:04d}",), qc, exec_ms=1.0))
            replies = await asyncio.gather(*futures)
            await gateway.stop()
            return replies, gateway.ledger

        replies, ledger = run_scripted(clock, scenario())
        assert [reply.outcome for reply in replies] == ["completed"] * 600
        seconds = int(clock.now / 1_000.0) + 1
        assert 3 <= seconds <= 4
        for buckets in (ledger.submitted_per_second,
                        ledger.gained_per_second):
            assert 0 < len(buckets) <= seconds
        assert sum(ledger.submitted_per_second) == pytest.approx(
            ledger.total_max)
        assert sum(ledger.gained_per_second) == pytest.approx(
            ledger.total_gained)
        assert ledger.total_gained > 0.0


class TestSleepUntil:
    def test_manual_clock_releases_sleepers_in_due_order(self):
        clock = ManualClock()
        woke = []

        async def sleeper(at_ms):
            await clock.sleep_until(at_ms)
            woke.append((at_ms, clock.now))

        async def scenario():
            tasks = [asyncio.ensure_future(sleeper(at_ms))
                     for at_ms in (30.0, 10.0, 20.0, 10.0, 0.0)]
            await asyncio.sleep(0)          # everyone parks
            assert woke == []               # a past instant still yields
            clock.advance(25.0)
            await asyncio.sleep(0)
            assert [at for at, _ in woke] == [0.0, 10.0, 10.0, 20.0]
            clock.advance(25.0)
            await asyncio.gather(*tasks)
            assert [at for at, _ in woke][-1] == 30.0

        asyncio.run(scenario())

    def test_manual_clock_interleaves_sleepers_and_periodics(self):
        clock = ManualClock()
        order = []
        clock.call_periodic(10.0, lambda now: order.append(("tick", now)),
                            name="tick")

        async def scenario():
            task = asyncio.ensure_future(clock.sleep_until(15.0))
            task.add_done_callback(lambda _: order.append(("woke", None)))
            await asyncio.sleep(0)
            clock.advance(12.0)
            await asyncio.sleep(0)
            assert not task.done()
            clock.advance(20.0)
            await task

        asyncio.run(scenario())
        assert order == [("tick", 10.0), ("tick", 20.0), ("tick", 30.0),
                         ("woke", None)]

    def test_manual_periodic_matches_des_clock(self):
        """Advancing across several periods in one go fires once per
        period at exactly k x period — what ``DESClock`` does."""
        manual, manual_fired = ManualClock(), []
        manual.call_periodic(7.5, manual_fired.append, name="tick")
        manual.advance(40.0)
        env, des_fired = Environment(), []
        DESClock(env).call_periodic(7.5, des_fired.append, name="tick")
        env.run(until=40.0)
        assert manual_fired == des_fired == [7.5, 15.0, 22.5, 30.0, 37.5]

    def test_tick_holds_an_absolute_schedule(self):
        """Overshoot never drifts the period: tick k fires for the
        instant k x period however late the earlier ones woke."""
        clock = ScriptedClock((0.7, 0.1, 1.9))
        fired = []
        clock.call_periodic(10.0, fired.append, name="tick")

        async def scenario():
            clock.start()
            await clock.sleep_until(100.0)
            await clock.stop()

        run_scripted(clock, scenario())
        due = [wake.at_ms for wake in clock.wakes if wake.task == "tick"]
        assert due == [10.0 * k for k in range(1, len(due) + 1)]
        assert len(fired) >= 9

    def test_tick_never_fires_twice_for_one_missed_period(self):
        """A stall of several periods costs one late firing; the periods
        it covered are skipped and the grid is kept — no burst."""
        # The tick due at 30 wakes 34 ms late: those due at 40, 50 and
        # 60 all pass during the stall, the next one fires for 70.  (The
        # scenario's own sleep takes the script's first overshoot.)
        clock = ScriptedClock(itertools.chain((0.5, 0.5, 0.5, 34.0),
                                              itertools.repeat(0.5)))
        fired = []
        clock.call_periodic(10.0, fired.append, name="tick")

        async def scenario():
            clock.start()
            await clock.sleep_until(100.0)
            await clock.stop()

        run_scripted(clock, scenario())
        assert fired == [10.5, 20.5, 64.0, 70.5, 80.5, 90.5]

    def test_tick_on_the_grid_instant_itself_waits_a_whole_period(self):
        """A wake-up that lands exactly on a later grid instant does not
        fire again for it ("strictly after now")."""
        clock = ScriptedClock(itertools.chain((0.0, 20.0),
                                              itertools.repeat(0.0)))
        fired = []
        clock.call_periodic(10.0, fired.append, name="tick")

        async def scenario():
            clock.start()
            await clock.sleep_until(55.0)
            await clock.stop()

        run_scripted(clock, scenario())
        assert fired == [30.0, 40.0, 50.0]

    def test_deadline_sweep_is_a_periodic_on_the_same_grid(self):
        clock = ScriptedClock((0.6, 1.7))

        async def scenario():
            gateway = QCGateway(make_scheduler("FIFO"),
                                GatewayConfig(sweep_interval_ms=10.0),
                                clock=clock)
            await gateway.start()
            await clock.sleep_until(95.0)
            await gateway.stop()

        run_scripted(clock, scenario())
        due = [wake.at_ms for wake in clock.wakes
               if wake.task == "gw-sweeper"]
        assert due == [10.0 * k for k in range(1, 10)]

    def test_monotonic_sleep_until_is_never_early_and_always_yields(self):
        async def scenario():
            clock = MonotonicClock()
            turns = []
            asyncio.get_running_loop().call_soon(turns.append, "loop ran")
            await clock.sleep_until(clock.now - 5.0)
            assert turns == ["loop ran"]
            for _ in range(20):
                target = clock.now + 1.5
                await clock.sleep_until(target)
                assert clock.now >= target

        asyncio.run(scenario())


class TestRatedSpeed:
    def test_back_to_back_updates_run_at_rated_speed_on_the_real_clock(self):
        """500 x 1 ms of work takes ~500 ms of wall time: a late wake-up
        (even a mid-run host stall) is absorbed by the timeline, not
        added to the busy period.  Chained relative sleeps took ~620 ms
        on the reference host, every time; a stall in the run's last
        few ms is the one thing the timeline cannot absorb, so the best
        of three attempts counts."""

        async def scenario():
            gateway = QCGateway(make_scheduler("FIFO"))
            await gateway.start()
            began = gateway.clock.now
            replies = await asyncio.gather(*(
                gateway.submit_update(f"S{i:04d}", 1.0, 1.0)
                for i in range(500)))
            wall_ms = gateway.clock.now - began
            await gateway.stop()
            return replies, wall_ms, gateway.cpu

        for _ in range(3):
            replies, wall_ms, cpu = asyncio.run(scenario())
            assert all(reply.outcome == "completed" for reply in replies)
            assert all(reply.response_time_ms >= 1.0 for reply in replies)
            assert wall_ms >= 500.0
            if (wall_ms <= 1.05 * 500.0 + 25.0
                    and cpu.charged_ms / cpu.busy_wall_ms >= 0.95):
                return
        pytest.fail(f"busy period {wall_ms:.0f} ms for 500 ms of work, "
                    f"rate {cpu.charged_ms / cpu.busy_wall_ms:.3f}")

    def test_loadgen_report_says_whether_the_host_kept_up(self):
        for _ in range(3):      # one host stall mid-cell is a bad draw
            report = run_cell("FIFO",
                              config=LoadgenConfig(duration_ms=300.0))
            assert 0.0 <= report["cpu_lag_ms"]["mean"] \
                <= report["cpu_lag_ms"]["max"]
            if report["cpu_rate"] >= 0.9:
                return
        pytest.fail(f"cpu_rate {report['cpu_rate']:.3f}")
