"""Tests for ``repro.analysis`` — the simlint determinism linter.

Every rule gets the same treatment: a fixture that must fire, a
near-miss that must stay quiet, and a suppressed variant via
``# repro: lint-ignore[rule-id]``.  A meta-test then runs the linter
over this repository itself and requires a clean bill.
"""

from __future__ import annotations

import json
import pathlib
import sys
import textwrap
import types

import pytest

from repro.analysis import (EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS,
                            Finding, LintConfig, lint_paths, main,
                            render_json, render_sarif, render_text)
from repro.analysis.core import (LintUsageError, ProjectGraph, Rule,
                                 SourceModule, apply_rules,
                                 find_project_root)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Default fixture location: inside the hot-path scope so that every
#: rule (including the scoped ones) is live.
HOT_RELPATH = "src/repro/sim/fixture_mod.py"


def lint_snippet(tmp_path, code, relpath=HOT_RELPATH, select=(),
                 extra=()):
    """Write ``code`` at ``relpath`` under a scratch root and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    for other_relpath, other_code in extra:
        other = tmp_path / other_relpath
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_text(textwrap.dedent(other_code))
    config = LintConfig(select=tuple(select))
    return lint_paths([tmp_path], config=config, root=tmp_path)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# ----------------------------------------------------------------------
class TestNoWallClock:
    def test_fires_on_time_time(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time
            t0 = time.time()
            """, select=["no-wall-clock"])
        assert rule_ids(findings) == ["no-wall-clock"]
        assert findings[0].line == 2

    def test_fires_on_from_import_and_use(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from time import perf_counter
            t0 = perf_counter()
            """, select=["no-wall-clock"])
        assert rule_ids(findings) == ["no-wall-clock"] * 2

    def test_fires_on_aliased_datetime_now(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import datetime as dt
            stamp = dt.datetime.now()
            """, select=["no-wall-clock"])
        assert rule_ids(findings) == ["no-wall-clock"]

    def test_quiet_on_simulated_clock_and_lookalikes(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            def run(env, server):
                t = env.now
                d = server.time()   # not the stdlib time module
                return t, d
            """, select=["no-wall-clock"])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time
            t0 = time.time()  # repro: lint-ignore[no-wall-clock] bench
            """, select=["no-wall-clock"])
        assert findings == []

    def test_fires_in_serve_path_outside_clock_module(self, tmp_path):
        # The live serving stack has a legal host clock, but only inside
        # repro.serve.clock — elsewhere the rule fires with a message
        # pointing at the MonotonicClock abstraction.
        findings = lint_snippet(tmp_path, """\
            import time
            t0 = time.monotonic()
            """, relpath="src/repro/serve/gateway_probe.py",
            select=["no-wall-clock"])
        assert rule_ids(findings) == ["no-wall-clock"]
        assert "MonotonicClock" in findings[0].message

    def test_quiet_in_the_serve_clock_module(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time
            t0 = time.monotonic()
            """, relpath="src/repro/serve/clock.py",
            select=["no-wall-clock"])
        assert findings == []

    def test_suppressed_in_serve_path(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time
            t0 = time.monotonic()  # repro: lint-ignore[no-wall-clock] x
            """, relpath="src/repro/serve/loop_probe.py",
            select=["no-wall-clock"])
        assert findings == []


# ----------------------------------------------------------------------
class TestNoGlobalRng:
    def test_fires_on_random_import_and_draw(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import random
            x = random.random()
            """, select=["no-global-rng"])
        assert rule_ids(findings) == ["no-global-rng"] * 2

    def test_fires_on_numpy_random_alias(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import numpy as np
            v = np.random.rand(3)
            """, select=["no-global-rng"])
        assert rule_ids(findings) == ["no-global-rng"]

    def test_quiet_on_stream_registry(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.sim.rng import StreamRegistry

            def draw(master_seed):
                rng = StreamRegistry(master_seed).stream("queries")
                return rng.exponential(10.0)
            """, select=["no-global-rng"])
        assert findings == []

    def test_rng_module_itself_is_exempt(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import random

            class Stream(random.Random):
                pass
            """, relpath="src/repro/sim/rng.py",
            select=["no-global-rng"])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            # repro: lint-ignore[no-global-rng] seeding docs example
            import random
            """, select=["no-global-rng"])
        assert findings == []


# ----------------------------------------------------------------------
class TestPicklableTasks:
    def test_fires_on_lambda_task(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.parallel import Task
            t = Task(lambda: 1, key="bad")
            """, select=["picklable-tasks"])
        assert rule_ids(findings) == ["picklable-tasks"]
        assert "lambda" in findings[0].message

    def test_fires_on_nested_function(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.parallel import Task

            def sweep():
                def inner(seed):
                    return seed
                return [Task(inner, (s,)) for s in range(3)]
            """, select=["picklable-tasks"])
        assert rule_ids(findings) == ["picklable-tasks"]
        assert "inner" in findings[0].message

    def test_fires_on_lambda_inside_run_tasks(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.parallel import run_tasks

            def sweep(tasks):
                return run_tasks([t.replace(fn=lambda: 0)
                                  for t in tasks])
            """, select=["picklable-tasks"])
        assert rule_ids(findings) == ["picklable-tasks"]

    def test_quiet_on_module_level_function(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.parallel import Task, run_tasks

            def job(seed):
                return seed * 2

            def sweep():
                return run_tasks([Task(job, (s,)) for s in range(3)])
            """, select=["picklable-tasks"])
        assert findings == []

    def test_quiet_on_unrelated_task_class(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            class Task:
                def __init__(self, fn):
                    self.fn = fn

            t = Task(lambda: 1)
            """, select=["picklable-tasks"])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.parallel import Task
            t = Task(lambda: 1)  # repro: lint-ignore[picklable-tasks]
            """, select=["picklable-tasks"])
        assert findings == []


# ----------------------------------------------------------------------
class TestSlotsHygiene:
    BASE = """\
        class Event:
            __slots__ = ("env", "callbacks")
        """

    def test_fires_on_unslotted_subclass(self, tmp_path):
        findings = lint_snippet(tmp_path, self.BASE + """\

            class Timeout(Event):
                pass
            """, select=["slots-hygiene"])
        assert rule_ids(findings) == ["slots-hygiene"]
        assert "Timeout" in findings[0].message

    def test_fires_across_modules(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.sim.base_fixture import Event

            class Timeout(Event):
                pass
            """, select=["slots-hygiene"],
            extra=[("src/repro/sim/base_fixture.py", self.BASE)])
        assert rule_ids(findings) == ["slots-hygiene"]

    def test_fires_on_class_level_mutable_default(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            class Queue:
                __slots__ = ("items",)
                shared_cache = {}
            """, select=["slots-hygiene"])
        assert rule_ids(findings) == ["slots-hygiene"]
        assert "shared_cache" in findings[0].message

    def test_quiet_on_slotted_subclass_and_tuples(self, tmp_path):
        findings = lint_snippet(tmp_path, self.BASE + """\

            class Timeout(Event):
                __slots__ = ("delay",)
                KINDS = ("soft", "hard")
            """, select=["slots-hygiene"])
        assert findings == []

    def test_out_of_scope_path_is_quiet(self, tmp_path):
        findings = lint_snippet(tmp_path, self.BASE + """\

            class Timeout(Event):
                pass
            """, relpath="src/repro/experiments/fixture_mod.py",
            select=["slots-hygiene"])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_snippet(tmp_path, self.BASE + """\

            # repro: lint-ignore[slots-hygiene] debug-only subclass
            class Traced(Event):
                pass
            """, select=["slots-hygiene"])
        assert findings == []


# ----------------------------------------------------------------------
class TestNoFloatEqOnClock:
    def test_fires_on_eq(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            def fire(env, deadline):
                return env.now == deadline
            """, select=["no-float-eq-on-clock"])
        assert rule_ids(findings) == ["no-float-eq-on-clock"]

    def test_fires_on_ne_reversed(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            def fire(env, deadline):
                return deadline != env.now
            """, select=["no-float-eq-on-clock"])
        assert rule_ids(findings) == ["no-float-eq-on-clock"]

    def test_quiet_on_ordering(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            def fire(env, deadline):
                return env.now >= deadline and env.nowhere == 3
            """, select=["no-float-eq-on-clock"])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            def fire(env):
                return env.now == 0.0  # repro: lint-ignore[no-float-eq-on-clock]
            """, select=["no-float-eq-on-clock"])
        assert findings == []


# ----------------------------------------------------------------------
class TestExceptionHygiene:
    def test_fires_on_bare_except(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            try:
                step()
            except:
                recover()
            """, select=["exception-hygiene"])
        assert rule_ids(findings) == ["exception-hygiene"]

    def test_fires_on_broad_pass_in_hot_path(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            try:
                step()
            except Exception:
                pass
            """, relpath="src/repro/db/fixture_mod.py",
            select=["exception-hygiene"])
        assert rule_ids(findings) == ["exception-hygiene"]

    def test_quiet_on_narrow_handler_and_cold_path(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            try:
                step()
            except ValueError:
                pass
            except Exception as exc:
                log(exc)
                raise
            """, select=["exception-hygiene"])
        assert findings == []
        # Broad except-and-pass is tolerated outside the hot paths.
        findings = lint_snippet(tmp_path, """\
            try:
                step()
            except Exception:
                pass
            """, relpath="examples/fixture_mod.py",
            select=["exception-hygiene"])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            try:
                step()
            except:  # repro: lint-ignore[exception-hygiene] REPL shim
                recover()
            """, select=["exception-hygiene"])
        assert findings == []


# ----------------------------------------------------------------------
class TestFramework:
    def test_bare_lint_ignore_suppresses_all_rules(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time
            import random
            t = time.time()  # repro: lint-ignore
            """)
        assert rule_ids(findings) == ["no-global-rng"]

    def test_allowlist_waives_rule_for_path(self, tmp_path):
        target = tmp_path / "bench" / "speed.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\nt = time.time()\n")
        config = LintConfig(
            allow={"no-wall-clock": ("bench/speed.py",)})
        findings = lint_paths([tmp_path], config=config,
                              root=tmp_path)
        assert findings == []

    def test_allowlist_loaded_from_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.repro.lint]
            exclude = ["skipme"]

            [tool.repro.lint.allow]
            no-wall-clock = ["bench"]
            """))
        bench = tmp_path / "bench" / "speed.py"
        bench.parent.mkdir()
        bench.write_text("import time\nt = time.time()\n")
        skipped = tmp_path / "skipme" / "junk.py"
        skipped.parent.mkdir()
        skipped.write_text("import random\n")
        findings = lint_paths([tmp_path])
        assert findings == []

    def test_allowlist_loaded_without_stdlib_tomllib(self, tmp_path,
                                                     monkeypatch):
        """Python 3.10 has no ``tomllib``; the config reader falls back to
        ``tomli``, which has the same API."""
        import tomllib
        stand_in = types.ModuleType("tomli")
        stand_in.loads = tomllib.loads
        stand_in.TOMLDecodeError = tomllib.TOMLDecodeError
        monkeypatch.setitem(sys.modules, "tomllib", None)
        monkeypatch.setitem(sys.modules, "tomli", stand_in)
        (tmp_path / "pyproject.toml").write_text(textwrap.dedent("""\
            [tool.repro.lint.allow]
            no-wall-clock = ["bench"]
            """))
        config = LintConfig.load(tmp_path)
        assert config.allow == {"no-wall-clock": ("bench",)}
        (tmp_path / "pyproject.toml").write_text("[tool.repro\n")
        with pytest.raises(LintUsageError):
            LintConfig.load(tmp_path)

    def test_syntax_error_becomes_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        findings = lint_paths([tmp_path], config=LintConfig(),
                              root=tmp_path)
        assert rule_ids(findings) == ["syntax-error"]

    def test_unknown_rule_id_rejected(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        with pytest.raises(LintUsageError):
            lint_paths([tmp_path],
                       config=LintConfig(select=("no-such-rule",)),
                       root=tmp_path)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(LintUsageError):
            lint_paths([tmp_path / "nope"], config=LintConfig(),
                       root=tmp_path)

    def test_findings_sorted_and_formatted(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import random
            import time
            t = time.time()
            """)
        assert findings == sorted(findings)
        text = findings[0].format()
        assert text.startswith(f"{HOT_RELPATH}:1:1: no-global-rng")

    def test_find_project_root_walks_up(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.repro.lint]\n")
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert find_project_root(nested) == tmp_path

    def test_render_json_round_trips(self, tmp_path):
        findings = [Finding("a.py", 3, 1, "no-wall-clock", "boom")]
        payload = json.loads(render_json(findings))
        assert payload["count"] == 1
        assert payload["findings"][0]["line"] == 3
        assert "1 finding(s)" in render_text(findings)


# ----------------------------------------------------------------------
class TestCli:
    def test_exit_clean(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_findings_text(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert main([str(tmp_path)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "bad.py:2:5: no-wall-clock" in out

    def test_exit_findings_json(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main([str(tmp_path), "--format", "json"]) == \
            EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_exit_error_on_unknown_rule(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path), "--select", "bogus"]) == EXIT_ERROR
        assert "unknown rule" in capsys.readouterr().err

    def test_exit_error_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == EXIT_ERROR

    def test_select_narrows_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert main([str(tmp_path), "--select", "no-wall-clock"]) == \
            EXIT_CLEAN

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("no-wall-clock", "no-global-rng",
                        "picklable-tasks", "slots-hygiene",
                        "no-float-eq-on-clock", "exception-hygiene"):
            assert rule_id in out

    def test_repro_cli_dispatches_lint(self, tmp_path, capsys):
        from repro.cli import main as repro_main
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert repro_main(["lint", str(tmp_path)]) == EXIT_CLEAN


# ----------------------------------------------------------------------
class TestSelfRun:
    """The repository must pass its own determinism linter."""

    def test_repo_is_clean(self, capsys):
        paths = [str(REPO_ROOT / name)
                 for name in ("src", "benchmarks", "examples")]
        code = main(paths + ["--root", str(REPO_ROOT)])
        out = capsys.readouterr().out
        assert code == EXIT_CLEAN, f"simlint findings:\n{out}"


class TestAmbientEntropy:
    def test_fires_on_os_urandom(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import os
            token = os.urandom(8)
            """, select=["no-ambient-entropy"])
        assert rule_ids(findings) == ["no-ambient-entropy"]
        assert findings[0].line == 2

    def test_fires_on_uuid4(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import uuid
            run_id = uuid.uuid4()
            """, select=["no-ambient-entropy"])
        assert rule_ids(findings) == ["no-ambient-entropy"]

    def test_fires_on_from_import_of_entropy_source(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from os import urandom
            token = urandom(8)
            """, select=["no-ambient-entropy"])
        assert "no-ambient-entropy" in rule_ids(findings)

    def test_fires_on_secrets_import(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import secrets
            """, select=["no-ambient-entropy"])
        assert rule_ids(findings) == ["no-ambient-entropy"]

    def test_quiet_on_seeded_streams_and_uuid5(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import uuid

            from repro.sim.rng import StreamRegistry

            rng = StreamRegistry(7).stream("chaos.schedule-0")
            value = rng.uniform(0.5, 1.5)
            stable = uuid.uuid5(uuid.NAMESPACE_URL, "repro")
            """, select=["no-ambient-entropy"])
        assert findings == []

    def test_quiet_on_unrelated_urandom_attribute(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            class Fake:
                def urandom(self, n):
                    return b"x" * n

            token = Fake().urandom(8)
            """, select=["no-ambient-entropy"])
        assert findings == []

    def test_suppressible_inline(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import os
            token = os.urandom(8)  # repro: lint-ignore[no-ambient-entropy]
            """, select=["no-ambient-entropy"])
        assert findings == []


# ----------------------------------------------------------------------
class TestSingleEventQueue:
    def test_fires_on_heapq_import_in_kernel_package(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import heapq

            queue = []
            heapq.heappush(queue, (1.0, 0, 0, None))
            """, select=["single-event-queue"])
        assert rule_ids(findings) == ["single-event-queue"]
        assert findings[0].line == 1

    def test_fires_on_heapq_from_import_in_kernel_package(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from heapq import heappop, heappush
            """, select=["single-event-queue"])
        assert rule_ids(findings) == ["single-event-queue"]

    def test_quiet_on_heapq_outside_kernel_package(self, tmp_path):
        # Transaction priority queues (repro.scheduling) order
        # transactions, not events — heapq there is legal.
        findings = lint_snippet(tmp_path, """\
            import heapq

            pending = []
            heapq.heappush(pending, (0.5, "txn"))
            """, relpath="src/repro/scheduling/fixture_mod.py",
            select=["single-event-queue"])
        assert findings == []

    def test_quiet_in_environment_module_itself(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from heapq import heappop, heappush

            buckets = {}
            _cal_size = 0
            """, relpath="src/repro/sim/environment.py",
            select=["single-event-queue"])
        assert findings == []

    def test_suppressible_inline(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import heapq  # repro: lint-ignore[single-event-queue]
            """, select=["single-event-queue"])
        assert findings == []


# ----------------------------------------------------------------------
class TestEntropyTaint:
    def test_fires_on_direct_flow_into_timeout(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time

            def run(env):
                env.timeout(time.monotonic() % 7.0)
            """, select=["no-entropy-taint"])
        assert rule_ids(findings) == ["no-entropy-taint"]
        assert findings[0].line == 4

    def test_fires_on_direct_flow_into_advance(self, tmp_path):
        # advance() moves the simulated clock in place of a timeout.
        findings = lint_snippet(tmp_path, """\
            import time

            def run(env):
                env.advance(time.monotonic())
            """, select=["no-entropy-taint"])
        assert rule_ids(findings) == ["no-entropy-taint"]
        assert findings[0].line == 4

    def test_fires_through_local_assignment(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import os

            def run(env):
                seed = os.urandom(4)[0]
                delay = seed * 2.0
                env.schedule(None, delay=delay)
            """, select=["no-entropy-taint"])
        assert rule_ids(findings) == ["no-entropy-taint"]
        assert findings[0].line == 6

    def test_fires_transitively_through_function_return(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time

            def jitter():
                return time.perf_counter() % 1.0

            def helper():
                return jitter() * 2.0

            def run(env):
                env.timeout(helper())
            """, select=["no-entropy-taint"])
        assert rule_ids(findings) == ["no-entropy-taint"]
        assert findings[0].line == 10

    def test_fires_across_modules(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            from repro.sim.entropy_fixture import jitter

            def run(env):
                env.timeout(jitter())
            """, select=["no-entropy-taint"],
            extra=[("src/repro/sim/entropy_fixture.py", """\
                import time

                def jitter():
                    return time.monotonic() % 1.0
                """)])
        taint = [f for f in findings if f.rule_id == "no-entropy-taint"]
        assert [f.line for f in taint] == [4]
        assert taint[0].path == "src/repro/sim/fixture_mod.py"

    def test_quiet_on_seeded_streams_and_constants(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import random

            def run(env, stream):
                rng = random.Random(42)
                env.timeout(stream.uniform(0.0, 1.0))
                env.timeout(rng.uniform(0.0, 1.0))
                env.timeout(5.0)
            """, select=["no-entropy-taint"])
        assert findings == []

    def test_unseeded_rng_constructor_is_a_source(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import random

            def run(env):
                rng = random.Random()
                env.timeout(rng.uniform(0.0, 1.0))
            """, select=["no-entropy-taint"])
        assert rule_ids(findings) == ["no-entropy-taint"]

    def test_taint_cleared_by_reassignment(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time

            def run(env):
                delay = time.monotonic()
                delay = 5.0
                env.timeout(delay)
            """, select=["no-entropy-taint"])
        assert findings == []

    def test_serve_clock_module_is_exempt(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time

            def run(loop):
                loop.schedule(time.monotonic())
            """, relpath="src/repro/serve/clock.py",
            select=["no-entropy-taint"])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            import time

            def run(env):
                env.timeout(time.monotonic())  # repro: lint-ignore[no-entropy-taint]
            """, select=["no-entropy-taint"])
        assert findings == []


# ----------------------------------------------------------------------
class TestSetIteration:
    def test_fires_on_for_loop_over_annotated_set(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            members: set[int] = set()

            def drain():
                for member in members:
                    print(member)
            """, select=["no-set-iteration"])
        assert rule_ids(findings) == ["no-set-iteration"]
        assert findings[0].line == 4

    def test_fires_on_comprehension_and_list_call(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            names = {"a", "b"}
            upper = [name.upper() for name in names]
            as_list = list(names)
            joined = ",".join(names)
            """, select=["no-set-iteration"])
        assert rule_ids(findings) == ["no-set-iteration"] * 3
        assert [f.line for f in findings] == [2, 3, 4]

    def test_fires_on_self_attribute_annotated_set(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            class Registry:
                def __init__(self):
                    self._members: set[int] = set()

                def drain(self):
                    return tuple(self._members)
            """, select=["no-set-iteration"])
        assert rule_ids(findings) == ["no-set-iteration"]
        assert findings[0].line == 6

    def test_fires_on_set_algebra_result(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            a = {1, 2}
            b = {2, 3}
            for x in a - b:
                print(x)
            """, select=["no-set-iteration"])
        assert rule_ids(findings) == ["no-set-iteration"]

    def test_quiet_on_sorted_and_membership(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            names = {"a", "b"}

            def ordered():
                for name in sorted(names):
                    print(name)
                return "a" in names and len(names)
            """, select=["no-set-iteration"])
        assert findings == []

    def test_quiet_on_lists_and_dicts(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            items = [1, 2]
            table = {"a": 1}
            for item in items:
                print(item)
            for key in table:
                print(key)
            """, select=["no-set-iteration"])
        assert findings == []

    def test_out_of_scope_path_is_quiet(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            names = {"a", "b"}
            for name in names:
                print(name)
            """, relpath="tests/fixture_mod.py",
            select=["no-set-iteration"])
        assert findings == []

    def test_suppressed(self, tmp_path):
        findings = lint_snippet(tmp_path, """\
            names = {"a", "b"}
            for name in names:  # repro: lint-ignore[no-set-iteration]
                print(name)
            """, select=["no-set-iteration"])
        assert findings == []


# ----------------------------------------------------------------------
class TestDecoratorSpanSuppression:
    DECORATED = """\
        import dataclasses

        class Event:
            __slots__ = ("a",)

        {marker_above}
        @dataclasses.dataclass{marker_inline}
        class Timeout(Event):
            b: int = 0
        """

    def _lint(self, tmp_path, above="", inline=""):
        code = self.DECORATED.format(marker_above=above,
                                     marker_inline=inline)
        return lint_snippet(tmp_path, code, select=["slots-hygiene"])

    def test_decorated_class_fires_and_anchors_on_class_line(
            self, tmp_path):
        findings = self._lint(tmp_path)
        assert rule_ids(findings) == ["slots-hygiene"]
        assert findings[0].line == 8  # the `class` line, not line 7

    def test_marker_on_decorator_line_suppresses(self, tmp_path):
        findings = self._lint(
            tmp_path, inline="  # repro: lint-ignore[slots-hygiene]")
        assert findings == []

    def test_marker_comment_above_decorator_suppresses(self, tmp_path):
        findings = self._lint(
            tmp_path, above="# repro: lint-ignore[slots-hygiene]")
        assert findings == []

    def test_marker_for_other_rule_does_not_suppress(self, tmp_path):
        findings = self._lint(
            tmp_path, inline="  # repro: lint-ignore[no-wall-clock]")
        assert rule_ids(findings) == ["slots-hygiene"]

    def test_decorated_function_span_via_apply_rules(self, tmp_path):
        # A rule anchoring on a decorated `def` line: the marker on the
        # decorator's line must reach it.
        class DefRule(Rule):
            rule_id = "def-rule"
            summary = "flags every function definition"

            def visit_FunctionDef(self, node):
                self.report(node, "a def")

        code = textwrap.dedent("""\
            import functools

            @functools.cache  # repro: lint-ignore[def-rule]
            def cached():
                return 1

            @functools.cache
            def uncached():
                return 2
            """)
        target = tmp_path / "mod.py"
        target.write_text(code)
        module = SourceModule(target, "mod.py", code)
        findings = apply_rules(module, [DefRule()])
        assert [(f.rule_id, f.line) for f in findings] == \
            [("def-rule", 8)]


# ----------------------------------------------------------------------
class TestProjectGraph:
    def test_call_graph_resolves_local_imported_and_methods(
            self, tmp_path):
        code_a = textwrap.dedent("""\
            from repro.sim.helper_fixture import leaf

            def outer():
                return inner() + leaf()

            def inner():
                return 1

            class Box:
                def get(self):
                    return self.compute()

                def compute(self):
                    return 2
            """)
        code_b = textwrap.dedent("""\
            def leaf():
                return 3
            """)
        module_a = SourceModule(tmp_path / "a.py",
                                "src/repro/sim/graph_fixture.py", code_a)
        module_b = SourceModule(tmp_path / "b.py",
                                "src/repro/sim/helper_fixture.py", code_b)
        graph = ProjectGraph([module_a, module_b])
        mod = "repro.sim.graph_fixture"
        assert graph.callees(f"{mod}.outer") == {
            f"{mod}.inner", "repro.sim.helper_fixture.leaf"}
        assert graph.callees(f"{mod}.Box.get") == {f"{mod}.Box.compute"}
        assert graph.transitive_callees(f"{mod}.outer") >= {
            f"{mod}.inner"}

    def test_module_name_strips_src_and_init(self):
        assert ProjectGraph.module_name(
            "src/repro/sim/environment.py") == "repro.sim.environment"
        assert ProjectGraph.module_name(
            "src/repro/sim/__init__.py") == "repro.sim"
        assert ProjectGraph.module_name("benchmarks/bench.py") == \
            "benchmarks.bench"


# ----------------------------------------------------------------------
class TestSarif:
    def test_render_sarif_structure(self):
        findings = [Finding("src/a.py", 3, 5, "no-wall-clock", "boom")]
        payload = json.loads(render_sarif(
            findings, {"no-wall-clock": "no host clocks"}))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "simlint"
        rules = {rule["id"]: rule["shortDescription"]["text"]
                 for rule in run["tool"]["driver"]["rules"]}
        assert rules == {"no-wall-clock": "no host clocks"}
        result = run["results"][0]
        assert result["ruleId"] == "no-wall-clock"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/a.py"
        assert location["region"] == {"startLine": 3, "startColumn": 5}

    def test_unknown_rule_ids_get_driver_entries(self):
        findings = [Finding("a.py", 1, 1, "custom-rule", "m")]
        payload = json.loads(render_sarif(findings))
        ids = [rule["id"] for rule
               in payload["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == ["custom-rule"]

    def test_cli_format_sarif(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\nt = time.time()\n")
        assert main([str(tmp_path), "--format", "sarif"]) == \
            EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        results = payload["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"no-wall-clock"}
