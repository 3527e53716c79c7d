"""Tests for :mod:`repro.telemetry` — tracing, metrics, exporters.

The golden test here is the span-lifecycle audit: on a real run, every
transaction that reached a terminal state must have emitted exactly one
``arrive`` instant and exactly one terminal instant, with the terminal
last in its chain.  The other pillars: ring-buffer eviction semantics,
Chrome-trace schema validity, the disabled path being a strict no-op,
and byte-identical simulation results with telemetry on or off.
"""

import csv
import dataclasses
import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.runner import run_simulation
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.sim import Environment
from repro.telemetry import (CAT_SCHED, CAT_TXN, CATEGORIES, TXN_ARRIVE,
                             TXN_TERMINALS, MetricsRegistry, TelemetryConfig,
                             TelemetrySession, Tracer, chrome_trace_events,
                             summary_report, to_chrome_trace,
                             write_chrome_trace)
from repro.telemetry.hooks import KernelProbe
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

POLICIES = ("FIFO", "UH", "QH", "QUTS")


def small_trace(seed=11, duration=8_000.0, **overrides):
    spec = dataclasses.replace(WorkloadSpec().scaled(duration), **overrides)
    return StockWorkloadGenerator(spec, master_seed=seed).generate()


@pytest.fixture(scope="module")
def trace():
    return small_trace()


def run_traced(trace, policy="QUTS", **kwargs):
    result = run_simulation(make_scheduler(policy), trace,
                            QCFactory.balanced(), master_seed=1,
                            telemetry=TelemetryConfig(**kwargs))
    assert result.telemetry is not None
    return result


# ----------------------------------------------------------------------
# The golden lifecycle audit
# ----------------------------------------------------------------------
class TestSpanLifecycleGolden:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_terminal_txn_has_one_arrive_one_terminal(self, trace,
                                                            policy):
        result = run_traced(trace, policy)
        chains: dict[int, list[str]] = {}
        for record in result.telemetry.tracer.instants():
            if record.category == CAT_TXN and record.txn_id >= 0:
                chains.setdefault(record.txn_id, []).append(record.name)

        terminal_chains = 0
        for txn_id, names in chains.items():
            arrivals = names.count(TXN_ARRIVE)
            terminals = [n for n in names if n in TXN_TERMINALS]
            assert arrivals == 1, (txn_id, names)
            assert names[0] == TXN_ARRIVE, (txn_id, names)
            assert len(terminals) <= 1, (txn_id, names)
            if terminals:
                terminal_chains += 1
                # The terminal is the chain's last lifecycle event.
                assert names[-1] == terminals[0], (txn_id, names)

        # Conservation: every submitted transaction reached a terminal.
        assert terminal_chains == len(trace.queries) + len(trace.updates)

    def test_lifecycle_counts_match_ledger(self, trace):
        result = run_traced(trace)
        counters = result.telemetry.registry.counter_values()
        ledger = result.counters
        assert counters.get("server/txn/commit", 0) == (
            ledger.get("queries_committed", 0)
            + ledger.get("updates_applied", 0))
        assert counters.get("server/txn/supersede", 0) == ledger.get(
            "updates_superseded", 0)
        assert counters.get("server/txn/expire", 0) == ledger.get(
            "queries_dropped_lifetime", 0)

    def test_cpu_spans_cover_committed_service_time(self, trace):
        result = run_traced(trace)
        busy = sum(s.dur for s in result.telemetry.tracer.spans()
                   if s.name in ("query", "update"))
        # CPU busy time is positive and bounded by the simulated horizon.
        assert 0.0 < busy <= result.duration


# ----------------------------------------------------------------------
# Determinism: byte-identical results on vs off, and the no-op path
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_results_identical_on_vs_off(self, trace, policy):
        off = run_simulation(make_scheduler(policy), trace,
                             QCFactory.balanced(), master_seed=1)
        on = run_traced(trace, policy)
        assert on.total_percent == off.total_percent
        assert on.qos_percent == off.qos_percent
        assert on.qod_percent == off.qod_percent
        assert on.mean_response_time == off.mean_response_time
        assert on.mean_staleness == off.mean_staleness
        assert on.counters == off.counters
        assert on.lock_stats == off.lock_stats
        if on.rho_series is not None:
            assert on.rho_series.times == off.rho_series.times
            assert on.rho_series.values == off.rho_series.values

    def test_none_knob_leaves_no_probes(self, trace):
        scheduler = make_scheduler("QUTS")
        result = run_simulation(scheduler, trace, QCFactory.balanced(),
                                master_seed=1)
        assert result.telemetry is None
        assert scheduler.probe is None

    def test_from_knob_coercions(self):
        assert TelemetrySession.from_knob(None) is None
        session = TelemetrySession.from_knob(TelemetryConfig())
        assert isinstance(session, TelemetrySession)
        assert TelemetrySession.from_knob(session) is session
        for knob in (True, False, "yes"):
            with pytest.raises(TypeError):
                TelemetrySession.from_knob(knob)  # type: ignore[arg-type]

    def test_environment_observer_defaults_off(self):
        assert Environment().telemetry is None

    def test_cluster_run_shares_one_session_across_replicas(self, trace):
        from repro.cluster import HedgedRouter, run_cluster_simulation

        def run(telemetry):
            return run_cluster_simulation(
                2, lambda: make_scheduler("QUTS"), trace,
                QCFactory.balanced(), router=HedgedRouter(),
                master_seed=7, telemetry=telemetry)

        off = run(None)
        on = run(TelemetryConfig())
        assert off.telemetry is None
        assert on.telemetry is not None
        assert on.total_percent == off.total_percent
        assert sorted(on.counters.items()) == sorted(off.counters.items())
        scopes = {record.track.split("/")[0]
                  for record in on.telemetry.tracer.records()}
        assert {"replica0", "replica1"} <= scopes


# ----------------------------------------------------------------------
# Ring buffer
# ----------------------------------------------------------------------
class TestRingBuffer:
    def test_eviction_overwrites_oldest(self):
        tracer = Tracer(buffer_size=4)
        for i in range(10):
            tracer.instant(float(i), CAT_TXN, "arrive", "server/lifecycle",
                           txn_id=i)
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        kept = [r.txn_id for r in tracer.records()]
        assert kept == [6, 7, 8, 9]  # oldest-first, newest retained

    def test_no_drops_below_capacity(self):
        tracer = Tracer(buffer_size=8)
        for i in range(8):
            tracer.counter(float(i), CAT_SCHED, "rho", "server/sched", 0.5)
        assert tracer.dropped == 0
        assert [r.ts for r in tracer.records()] == [float(i)
                                                    for i in range(8)]

    def test_category_filter_drops_early(self):
        tracer = Tracer(categories=(CAT_SCHED,), buffer_size=8)
        tracer.instant(0.0, CAT_TXN, "arrive", "server/lifecycle")
        tracer.instant(0.0, CAT_SCHED, "quantum_draw", "server/sched")
        assert tracer.emitted == 1
        assert [r.category for r in tracer.records()] == [CAT_SCHED]
        assert tracer.enabled_for(CAT_SCHED)
        assert not tracer.enabled_for(CAT_TXN)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            Tracer(buffer_size=0)
        with pytest.raises(ValueError):
            Tracer(categories=("nope",))
        with pytest.raises(ValueError):
            TelemetryConfig(buffer_size=-1)
        with pytest.raises(ValueError):
            TelemetryConfig(categories=("nope",))

    def test_small_buffer_run_reports_drops(self, trace):
        result = run_traced(trace, buffer_size=256)
        tracer = result.telemetry.tracer
        assert len(tracer) == 256
        assert tracer.dropped == tracer.emitted - 256 > 0
        times = [r.ts for r in tracer.records()]
        assert times == sorted(times)  # oldest-first after unwrapping


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeExport:
    def test_schema(self, trace):
        result = run_traced(trace)
        payload = to_chrome_trace(result.telemetry.tracer,
                                  metadata={"policy": "QUTS"})
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["policy"] == "QUTS"
        assert payload["otherData"]["dropped"] == 0
        events = payload["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"M", "X", "i", "C"}
        assert {"X", "i", "C", "M"} <= phases  # all record kinds present
        for event in events:
            assert {"ph", "pid", "tid", "name"} <= event.keys()
            if event["ph"] == "M":
                assert event["name"] in ("process_name", "thread_name")
                continue
            assert event["ts"] >= 0.0
            assert isinstance(event["cat"], str)
            if event["ph"] == "X":
                assert event["dur"] > 0.0
            elif event["ph"] == "C":
                assert "value" in event["args"]
            elif event["ph"] == "i":
                assert event["s"] == "t"

    def test_tracks_become_named_processes_and_threads(self, trace):
        result = run_traced(trace)
        events = chrome_trace_events(result.telemetry.tracer)
        processes = {e["args"]["name"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
        threads = {e["args"]["name"] for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "server" in processes
        assert {"lifecycle", "cpu", "sched", "queues"} <= threads

    def test_timestamps_scaled_to_microseconds(self):
        tracer = Tracer(buffer_size=4)
        tracer.span(2.0, 1.5, CAT_TXN, "query", "server/cpu", txn_id=7)
        (event,) = [e for e in chrome_trace_events(tracer)
                    if e["ph"] == "X"]
        assert event["ts"] == 2_000.0
        assert event["dur"] == 1_500.0

    def test_write_chrome_trace_is_valid_json(self, trace, tmp_path):
        result = run_traced(trace)
        target = write_chrome_trace(result.telemetry.tracer,
                                    tmp_path / "trace.json")
        loaded = json.loads(target.read_text())
        assert loaded["traceEvents"]
        assert loaded["otherData"]["clock"] == "simulated-ms"

    def test_export_is_deterministic(self, trace):
        # Every run numbers its transactions from 1, so two runs in one
        # process export identical events, ids included.
        a = run_traced(trace)
        b = run_traced(trace)
        assert (chrome_trace_events(a.telemetry.tracer)
                == chrome_trace_events(b.telemetry.tracer))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_and_gauges_lazy(self):
        registry = MetricsRegistry()
        registry.counter("a").increment(3)
        registry.gauge("g").record(0.0, 1.0)
        assert registry.counter_values() == {"a": 3}
        assert list(registry.gauges()) == ["g"]

    def test_scoped_prefixes(self):
        registry = MetricsRegistry()
        scoped = registry.scoped("replica1")
        scoped.counter("txn/commit").increment()
        assert registry.counter_values() == {"replica1/txn/commit": 1}

    def test_gauges_bounded(self):
        registry = MetricsRegistry(series_points=16)
        gauge = registry.gauge("depth")
        for t in range(10_000):
            gauge.record(float(t), float(t))
        assert len(gauge) <= 16

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("rt", boundaries=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]
        assert registry.histograms()["rt"] is h

    def test_kernel_probe_counts_flushed(self, trace):
        result = run_traced(trace)
        counters = result.telemetry.registry.counter_values()
        kernel = {k: v for k, v in counters.items()
                  if k.startswith("kernel/events_")}
        assert kernel  # the instrumented loop saw events
        assert kernel.get("kernel/events_timeout", 0) > 0
        # Slices that ended before the next event moved the clock
        # without one; the probe reports them beside the events.
        assert counters.get("kernel/fast_forwards", 0) > 0

    def test_kernel_probe_not_attached_without_category(self, trace):
        result = run_traced(trace, categories=("txn",))
        counters = result.telemetry.registry.counter_values()
        assert not any(k.startswith("kernel/") for k in counters)


# ----------------------------------------------------------------------
# Summary + CLI
# ----------------------------------------------------------------------
class TestSummaryAndCli:
    def test_summary_report_mentions_counts(self, trace):
        result = run_traced(trace)
        text = summary_report(result.telemetry.tracer,
                              result.telemetry.registry)
        assert "records retained" in text
        assert "txn" in text
        assert "busy time" in text

    def test_trace_cli_writes_perfetto_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert cli_main(["trace", "figures", "--fig", "5", "--scale",
                         "smoke", "--out", str(out), "--summary"]) == 0
        printed = capsys.readouterr().out
        assert "wrote" in printed
        assert "telemetry summary" in printed
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        assert payload["otherData"]["fig"] == 5

    def test_trace_cli_writes_series_csv(self, tmp_path, capsys):
        out, table = tmp_path / "trace.json", tmp_path / "series.csv"
        assert cli_main(["trace", "run", "--scale", "smoke", "--out",
                         str(out), "--csv", str(table)]) == 0
        capsys.readouterr()
        with table.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["series", "t_ms", "value"]
        assert any(row[0] == "server/sched/rho" for row in rows[1:])
        for __, t_ms, value in rows[1:]:
            float(t_ms)
            float(value)

    def test_trace_cli_rejects_unknown_category(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["trace", "run", "--categories", "bogus",
                      "--out", str(tmp_path / "t.json")])

    def test_all_categories_exported(self):
        assert CATEGORIES == {"txn", "sched", "cluster", "kernel",
                              "shard"}

    def test_kernel_probe_is_event_observer(self):
        probe = KernelProbe(MetricsRegistry().scoped("kernel"))
        env = Environment()
        env.telemetry = probe
        env.process(_tick(env), name="tick")
        env.run(until=10.0)
        probe.flush()
        assert probe.counts.get("timeout", 0) >= 1


def _tick(env):
    yield env.timeout(1.0)


# ----------------------------------------------------------------------
# Per-category stride sampling (TelemetryConfig(sample_rate=...))
# ----------------------------------------------------------------------
class TestSampling:
    def test_config_normalises_dict_to_sorted_pairs(self):
        config = TelemetryConfig(sample_rate={CAT_TXN: 0.25,
                                              CAT_SCHED: 0.5})
        assert config.sample_rate == ((CAT_SCHED, 0.5), (CAT_TXN, 0.25))

    def test_config_rejects_bad_rates_and_categories(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_rate={"nope": 0.5})
        with pytest.raises(ValueError):
            TelemetryConfig(sample_rate={CAT_TXN: 0.0})
        with pytest.raises(ValueError):
            TelemetryConfig(sample_rate={CAT_TXN: 1.5})

    def test_stride_keeps_first_of_every_n(self):
        tracer = Tracer(sample_rate=((CAT_TXN, 0.25),))
        for i in range(8):
            tracer.instant(float(i), CAT_TXN, "arrive", "t")
        assert len(tracer.records()) == 2  # records 0 and 4
        assert tracer.sampled == 6
        assert [r.ts for r in tracer.records()] == [0.0, 4.0]

    def test_unsampled_categories_keep_everything(self):
        tracer = Tracer(sample_rate=((CAT_TXN, 0.1),))
        for i in range(5):
            tracer.instant(float(i), CAT_SCHED, "tick", "t")
        assert len(tracer.records()) == 5
        assert tracer.sampled == 0

    def test_rate_one_is_a_noop(self):
        tracer = Tracer(sample_rate=((CAT_TXN, 1.0),))
        for i in range(5):
            tracer.instant(float(i), CAT_TXN, "arrive", "t")
        assert len(tracer.records()) == 5
        assert tracer.sampled == 0

    def test_sampling_counts_per_category_not_globally(self):
        tracer = Tracer(sample_rate=((CAT_TXN, 0.5), (CAT_SCHED, 0.5)))
        for i in range(4):
            tracer.instant(float(i), CAT_TXN, "arrive", "t")
            tracer.instant(float(i), CAT_SCHED, "tick", "t")
        kept = tracer.records()
        assert len([r for r in kept if r.category == CAT_TXN]) == 2
        assert len([r for r in kept if r.category == CAT_SCHED]) == 2

    def test_sampled_run_results_identical_to_unsampled(self, trace):
        full = run_traced(trace)
        sampled = run_traced(trace, sample_rate={CAT_TXN: 0.1,
                                                 CAT_SCHED: 0.1})
        assert sampled.total_percent == full.total_percent
        assert sampled.qos_percent == full.qos_percent
        assert sampled.qod_percent == full.qod_percent
        assert sampled.mean_response_time == full.mean_response_time
        assert sampled.counters == full.counters

    def test_sampled_run_retains_fewer_records(self, trace):
        full = run_traced(trace)
        sampled = run_traced(trace, sample_rate={CAT_TXN: 0.1})
        full_n = len(full.telemetry.tracer.records())
        sampled_n = len(sampled.telemetry.tracer.records())
        assert 0 < sampled_n < full_n
        assert sampled.telemetry.tracer.sampled > 0

    def test_sampling_is_deterministic(self, trace):
        runs = [run_traced(trace, sample_rate={CAT_TXN: 0.2})
                for __ in range(2)]
        counts = [len(r.telemetry.tracer.records()) for r in runs]
        assert counts[0] == counts[1]
        assert runs[0].telemetry.tracer.sampled == \
            runs[1].telemetry.tracer.sampled
