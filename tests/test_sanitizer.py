"""Tests for ``repro.sim.sanitizer`` and the ``repro sanitize`` harness.

The detector's contract has three parts, and each gets adversarial
coverage: (1) real same-timestamp conflicts are reported with both
events' suspension locations; (2) causally ordered same-timestamp
chains — the normal shape of a discrete-event program — never fire it;
(3) running under the sanitizer changes nothing: fingerprints are
byte-identical with tracking on, off, or under eid permutation on a
clean workload.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.db.transactions import Update
from repro.experiments.config import ExperimentConfig
from repro.analysis.core import EXIT_CLEAN, EXIT_ERROR
from repro.experiments import sanitize as sanitize_mod
from repro.experiments.runner import run_simulation
from repro.experiments.sanitize import (PLANTED_SET_ITER_LINE, Scenario,
                                        check_perturbation, check_races,
                                        planted_order_findings,
                                        planted_set_iter_findings,
                                        result_fingerprint,
                                        sanitize_scenarios)
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.sim import Environment
from repro.sim.process import Event_NORMAL, Event_URGENT
from repro.sim.sanitizer import (Sanitizer, SanitizerError,
                                 _PermutedCounter)
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec
from tests.kernel_reference import HeapEnvironment


def _tiny_trace(duration_ms=2_000.0, seed=3):
    return StockWorkloadGenerator(WorkloadSpec().scaled(duration_ms),
                                  master_seed=seed).generate()


def _race_env():
    env = Environment()
    sanitizer = Sanitizer(track_state=True)
    sanitizer.install(env)
    return env, sanitizer


def _two_procs(env, sanitizer, first, second, delay=5.0):
    """Two processes created up front, both acting at the same time."""
    def proc(action):
        yield env.timeout(delay)
        action()
    env.process(proc(first), name="first")
    env.process(proc(second), name="second")
    env.run(until=delay * 4)
    sanitizer.finish()
    return sanitizer.findings


# ----------------------------------------------------------------------
class TestRaceDetection:
    def test_write_write_race_reported_with_locations(self):
        env, sanitizer = _race_env()
        findings = _two_procs(env, sanitizer,
                              lambda: sanitizer.log_write("cell"),
                              lambda: sanitizer.log_write("cell"))
        assert len(findings) == 1
        finding = findings[0]
        assert finding.kind == "write/write"
        assert finding.cells == ("cell",)
        assert finding.time == pytest.approx(5.0)
        # Both sides carry a label naming the process and a real
        # suspension location in this test file.
        assert "first" in finding.first.label
        assert "second" in finding.second.label
        assert finding.first.path.endswith("test_sanitizer.py")
        assert finding.first.line > 0
        assert finding.first.eid < finding.second.eid
        assert "eid tie-break" in finding.format()

    def test_read_write_conflict_reported(self):
        env, sanitizer = _race_env()
        findings = _two_procs(env, sanitizer,
                              lambda: sanitizer.log_read("cell"),
                              lambda: sanitizer.log_write("cell"))
        assert [finding.kind for finding in findings] == ["read/write"]

    def test_read_read_commutes(self):
        env, sanitizer = _race_env()
        findings = _two_procs(env, sanitizer,
                              lambda: sanitizer.log_read("cell"),
                              lambda: sanitizer.log_read("cell"))
        assert findings == []

    def test_incr_incr_commutes(self):
        env, sanitizer = _race_env()
        findings = _two_procs(env, sanitizer,
                              lambda: sanitizer.log_incr("cell"),
                              lambda: sanitizer.log_incr("cell"))
        assert findings == []

    def test_incr_read_conflicts(self):
        env, sanitizer = _race_env()
        findings = _two_procs(env, sanitizer,
                              lambda: sanitizer.log_incr("cell"),
                              lambda: sanitizer.log_read("cell"))
        assert [finding.kind for finding in findings] == \
            ["increment/read"]

    def test_distinct_cells_commute(self):
        env, sanitizer = _race_env()
        findings = _two_procs(env, sanitizer,
                              lambda: sanitizer.log_write("a"),
                              lambda: sanitizer.log_write("b"))
        assert findings == []

    def test_causal_chain_at_same_timestamp_is_quiet(self):
        # write -> zero-delay continuation -> write again: the second
        # dispatch's event was created *during* the first (eid above
        # the watermark), so the pair is causally ordered, not a race.
        env, sanitizer = _race_env()

        def chain():
            yield env.timeout(5.0)
            sanitizer.log_write("cell")
            yield env.timeout(0.0)
            sanitizer.log_write("cell")

        env.process(chain(), name="chain")
        env.run(until=20.0)
        sanitizer.finish()
        assert sanitizer.findings == []

    def test_priority_ordered_events_are_not_grouped(self):
        # Same timestamp, different priorities: dispatch order is fixed
        # by the priority lane, so conflicting accesses are fine.
        env, sanitizer = _race_env()
        urgent, normal = env.event(), env.event()
        for event in (urgent, normal):
            event._ok = True  # pre-triggered, like a Timeout
            event.callbacks.append(
                lambda event: sanitizer.log_write("cell"))
        env.schedule(urgent, delay=5.0, priority=Event_URGENT)
        env.schedule(normal, delay=5.0, priority=Event_NORMAL)
        env.run(until=20.0)
        sanitizer.finish()
        assert sanitizer.findings == []

    def test_different_timestamps_are_not_grouped(self):
        env, sanitizer = _race_env()

        def proc(delay):
            yield env.timeout(delay)
            sanitizer.log_write("cell")

        env.process(proc(5.0), name="early")
        env.process(proc(6.0), name="late")
        env.run(until=20.0)
        sanitizer.finish()
        assert sanitizer.findings == []

    def test_max_findings_caps_the_report(self):
        env = Environment()
        sanitizer = Sanitizer(track_state=True, max_findings=1)
        sanitizer.install(env)
        findings = _two_procs(
            env, sanitizer,
            lambda: (sanitizer.log_write("a"), sanitizer.log_write("b")),
            lambda: (sanitizer.log_write("a"), sanitizer.log_write("b")))
        assert len(findings) == 1


# ----------------------------------------------------------------------
class TestTrackedState:
    def test_tracked_database_races_on_shared_key(self):
        env, sanitizer = _race_env()
        database = sanitizer.tracked_database()

        def writer(value):
            yield env.timeout(5.0)
            database.register_update(
                Update(env.now, 1.0, "KEY", value=value), env.now)

        env.process(writer(1.0), name="w1")
        env.process(writer(2.0), name="w2")
        env.run(until=20.0)
        sanitizer.finish()
        kinds = {finding.kind for finding in sanitizer.findings}
        assert "write/write" in kinds
        assert any("db.items[KEY]" in finding.cells
                   for finding in sanitizer.findings)

    def test_tracked_database_reads_commute(self):
        env, sanitizer = _race_env()
        database = sanitizer.tracked_database()
        database.item("KEY")  # materialise the key outside the run

        def reader():
            yield env.timeout(5.0)
            database.read("KEY")

        env.process(reader(), name="r1")
        env.process(reader(), name="r2")
        env.run(until=20.0)
        sanitizer.finish()
        assert sanitizer.findings == []

    def test_track_scheduler_wraps_queue_mutators(self):
        sanitizer = Sanitizer(track_state=True)
        scheduler = make_scheduler("QUTS")
        sanitizer.track_scheduler(scheduler)
        # The wrappers live on the instance, shadowing the class.
        assert "submit_query" in vars(scheduler)
        assert "next_transaction" in vars(scheduler)
        assert "_adapt" in vars(scheduler)


# ----------------------------------------------------------------------
class TestModesAndMisuse:
    def test_salt_with_tracking_rejected(self):
        with pytest.raises(SanitizerError):
            Sanitizer(track_state=True, salt=1)

    def test_install_on_used_environment_rejected(self):
        env = Environment()
        env.timeout(1.0)
        with pytest.raises(SanitizerError):
            Sanitizer().install(env)

    def test_double_install_rejected(self):
        env = Environment()
        Sanitizer().install(env)
        with pytest.raises(SanitizerError):
            Sanitizer().install(env)

    def test_permuted_counter_is_a_bijection(self):
        counter = _PermutedCounter(salt=7)
        drawn = [next(counter) for _ in range(4096)]
        assert len(set(drawn)) == len(drawn)

    def test_perturbation_flips_tiebreak_order(self):
        def order_for(salt):
            env = Environment()
            sanitizer = Sanitizer(track_state=False, salt=salt)
            sanitizer.install(env)
            out = []

            def proc(name):
                yield env.timeout(5.0)
                out.append(name)

            env.process(proc("a"), name="a")
            env.process(proc("b"), name="b")
            env.run(until=20.0)
            return out

        assert order_for(None) == ["a", "b"]
        assert order_for(1) == ["b", "a"]

    def test_heap_environment_supports_the_sanitizer(self):
        env = HeapEnvironment()
        sanitizer = Sanitizer(track_state=True)
        sanitizer.install(env)
        findings = _two_procs(env, sanitizer,
                              lambda: sanitizer.log_write("cell"),
                              lambda: sanitizer.log_write("cell"))
        assert [finding.kind for finding in findings] == ["write/write"]


# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_sanitized_run_is_byte_identical(self):
        trace = _tiny_trace()
        plain = run_simulation(make_scheduler("QUTS"), trace,
                               QCFactory.balanced(), master_seed=1)
        sanitizer = Sanitizer(track_state=True)
        tracked = run_simulation(make_scheduler("QUTS"), trace,
                                 QCFactory.balanced(), master_seed=1,
                                 sanitizer=sanitizer)
        assert result_fingerprint(plain) == result_fingerprint(tracked)
        assert sanitizer.events_seen > 0
        assert sanitizer.findings == []

    def test_scenarios_cover_fig5_and_fig9(self):
        config = ExperimentConfig(scale="smoke")
        scenarios = sanitize_scenarios(config, ["fig5", "fig9"],
                                       ["QH", "QUTS"])
        assert [scenario.name for scenario in scenarios] == \
            ["fig5/QH", "fig5/QUTS", "fig9/flip-flop"]

    def test_check_races_and_perturbation_clean_on_tiny_cell(self):
        config = ExperimentConfig(scale="smoke")
        trace = _tiny_trace()
        scenario = Scenario(
            "tiny/QH",
            lambda: (make_scheduler("QH"), trace, QCFactory.balanced()))
        findings, events = check_races(scenario, config)
        assert findings == []
        assert events > 0
        assert check_perturbation(scenario, config, [1, 2]) == []


# ----------------------------------------------------------------------
class TestPlantedBugs:
    def test_planted_order_dependence_is_detected(self):
        findings = planted_order_findings()
        hits = [finding for finding in findings
                if "db.items[PLANTED]" in finding.cells]
        assert hits, findings
        finding = hits[0]
        assert finding.kind == "write/write"
        assert "planted-a" in finding.first.label
        assert "planted-b" in finding.second.label
        assert finding.first.path.endswith("sanitize.py")

    def test_planted_order_report_is_the_same_from_any_cwd(
            self, tmp_path, monkeypatch, capsys):
        outputs = []
        for cwd in (pathlib.Path(__file__).parent, tmp_path):
            monkeypatch.chdir(cwd)
            assert sanitize_mod._planted_main("order") == EXIT_CLEAN
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # Relative to the project root, so any checkout prints it too.
        assert "(src/repro/experiments/sanitize.py:" in outputs[0]

    def test_planted_set_iteration_is_detected_at_line(self):
        findings = planted_set_iter_findings()
        assert any(finding.rule_id == "no-set-iteration"
                   and finding.line == PLANTED_SET_ITER_LINE
                   for finding in findings), findings


# ----------------------------------------------------------------------
class TestOutsideACheckout:
    """With no ``src/`` to lint, ``repro sanitize`` stops before any
    scenario runs, unless the static rules are skipped."""

    def test_fails_before_any_scenario(self, tmp_path, monkeypatch,
                                       capsys):
        monkeypatch.chdir(tmp_path)
        built = []
        monkeypatch.setattr(sanitize_mod, "sanitize_scenarios",
                            lambda *args: built.append(args) or [])
        assert sanitize_mod.main(["--scale", "smoke"]) == EXIT_ERROR
        assert built == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--skip-static" in err
        assert sanitize_mod.main(["--scale", "smoke",
                                  "--skip-static"]) == EXIT_CLEAN
        assert len(built) == 1


# ----------------------------------------------------------------------
class TestFastForward:
    """``Environment.advance`` hands the sanitizer a stand-in timeout, so
    race mode sees the run it would have seen without fast-forwarding."""

    @staticmethod
    def _no_fast_forward(monkeypatch):
        monkeypatch.setattr(Environment, "advance",
                            lambda env, delay: False)

    def test_race_mode_is_identical_with_fast_forward(self, monkeypatch):
        trace = _tiny_trace()

        def run():
            sanitizer = Sanitizer(track_state=True, record_trace=True)
            result = run_simulation(make_scheduler("QUTS"), trace,
                                    QCFactory.balanced(), master_seed=1,
                                    sanitizer=sanitizer)
            return (result_fingerprint(result), sanitizer.findings,
                    sanitizer.events_seen, sanitizer.trace)

        taken = []
        advance = Environment.advance

        def counting(env, delay):
            taken.append(advance(env, delay))
            return taken[-1]

        monkeypatch.setattr(Environment, "advance", counting)
        fast = run()
        self._no_fast_forward(monkeypatch)
        assert fast == run()
        assert sum(taken) > 0

    def test_planted_race_found_identically_beside_a_fast_forwarder(
            self, monkeypatch):
        def run():
            env, sanitizer = _race_env()

            def worker():
                for _ in range(8):
                    if not env.advance(0.75):
                        yield env.timeout(0.75)
                    sanitizer.log_write("worker")

            env.process(worker(), name="worker")
            findings = _two_procs(env, sanitizer,
                                  lambda: sanitizer.log_write("cell"),
                                  lambda: sanitizer.log_write("cell"))
            return findings, sanitizer.events_seen, env.fast_forwards

        fast = run()
        assert [finding.cells for finding in fast[0]] == [("cell",)]
        assert fast[2] > 0
        self._no_fast_forward(monkeypatch)
        slow = run()
        assert fast[:2] == slow[:2]
