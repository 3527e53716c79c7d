"""The simlint ruleset: the repository's determinism invariants as code.

Each rule encodes one of the guarantees the experiments depend on.
They are deliberately conservative: matching is driven by the module's
import table (see :class:`repro.analysis.core.ImportTable`), so a local
variable that happens to be called ``random`` never trips a rule, and
an aliased ``import numpy.random as nr`` still does.

================== ==================================================
rule id            invariant
================== ==================================================
no-wall-clock      simulated time only — results must not depend on
                   the host clock
no-global-rng      all randomness flows through named, seeded
                   StreamRegistry streams
picklable-tasks    parallel sweeps fork tasks to worker processes;
                   lambdas and closures do not survive pickling
slots-hygiene      hot-path classes stay ``__slots__``-based, and do
                   not share mutable class-level state
no-float-eq-on-clock  the simulated clock is a float; exact equality
                   against it is seed-dependent luck
exception-hygiene  scheduler/db/WAL hot paths may not swallow errors
                   that the invariant monitor needs to see
no-ambient-entropy fault/chaos code may not read OS entropy (urandom,
                   uuid4, secrets) — schedules must derive from the
                   master seed alone
single-event-queue only ``sim.environment`` owns an event-queue
                   implementation; no second heapq in the kernel
                   package
no-entropy-taint   host-entropy values (wall clock, OS randomness,
                   unseeded RNGs) may not flow — even through
                   function returns — into event scheduling
no-set-iteration   library code may not iterate over sets;
                   hash-randomized order is a replay hazard
================== ==================================================
"""

from __future__ import annotations

import ast
import typing

from .core import ProjectGraph, Rule, SourceModule

__all__ = ["ALL_RULES", "AmbientEntropyRule", "ClockEqualityRule",
           "EntropyTaintRule", "ExceptionHygieneRule", "GlobalRngRule",
           "PicklableTaskRule", "SetIterationRule",
           "SingleEventQueueRule", "SlotsHygieneRule", "WallClockRule"]

#: Directories holding the simulator's hot paths: classes here are
#: constructed millions of times per run and stay ``__slots__``-based.
HOT_PATHS = ("src/repro/sim", "src/repro/scheduling", "src/repro/db")


# ----------------------------------------------------------------------
class WallClockRule(Rule):
    """Ban host wall-clock reads: results depend on simulated time only.

    Reading ``time.time()`` (or any sibling) makes output depend on
    host speed and scheduling, which breaks bit-identical replay and
    the parallel-equals-sequential sweep contract.  Simulation code
    must use ``Environment.now``.
    """

    rule_id = "no-wall-clock"
    summary = ("host clock read (time.time/perf_counter/datetime.now "
               "...); use the simulated clock Environment.now")

    #: The one module allowed to touch the host clock: the live
    #: gateway's clock abstraction.  Everything else in
    #: ``src/repro/serve/`` must go through its MonotonicClock so the
    #: serving stack stays testable against a ManualClock.
    exempt = ("src/repro/serve/clock.py",)

    BANNED: typing.ClassVar[frozenset[str]] = frozenset({
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "time.clock_gettime", "time.clock_gettime_ns",
        "time.localtime", "time.gmtime", "time.ctime", "time.asctime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def _flag(self, node: ast.AST, what: str) -> None:
        assert self.module is not None
        if self.module.relpath.startswith("src/repro/serve/"):
            # The live serving stack has a legal clock — but only
            # behind the abstraction in repro.serve.clock (the exempt
            # module above); direct reads elsewhere defeat ManualClock
            # testability.
            self.report(node, f"{what} outside repro.serve.clock; the "
                              f"serving stack must read time through "
                              f"the gateway's MonotonicClock")
            return
        self.report(node, what)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        assert self.module is not None
        target = self.module.imports.resolve(node)
        if target in self.BANNED:
            self._flag(node, f"reads the host clock via '{target}'")

    def visit_Name(self, node: ast.Name) -> None:
        # Catches uses of `from time import perf_counter` style imports
        # (the import itself is flagged by visit_ImportFrom).
        if not isinstance(node.ctx, ast.Load):
            return
        assert self.module is not None
        target = self.module.imports.resolve(node)
        if target in self.BANNED:
            self._flag(node, f"reads the host clock via '{target}'")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return
        for alias in node.names:
            if f"{node.module}.{alias.name}" in self.BANNED:
                self._flag(node,
                           f"imports the host clock function "
                           f"'{node.module}.{alias.name}'")


# ----------------------------------------------------------------------
class GlobalRngRule(Rule):
    """Ban the global/stdlib RNGs outside ``repro/sim/rng.py``.

    Global ``random.*`` state is shared across the whole process: any
    draw outside a named stream perturbs every later draw, so two runs
    of "the same" experiment diverge as soon as any unrelated code
    consumes randomness.  All randomness must come from
    ``StreamRegistry.stream(name)``.
    """

    rule_id = "no-global-rng"
    summary = ("global random module / numpy.random used outside "
               "repro/sim/rng.py; draw from a StreamRegistry stream")
    exempt = ("src/repro/sim/rng.py",)

    BANNED_MODULES: typing.ClassVar[frozenset[str]] = frozenset({
        "random", "numpy.random",
    })

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self.BANNED_MODULES:
                self.report(node,
                            f"imports '{alias.name}'; use "
                            f"repro.sim.rng.StreamRegistry streams")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return
        if node.module in self.BANNED_MODULES:
            self.report(node,
                        f"imports from '{node.module}'; use "
                        f"repro.sim.rng.StreamRegistry streams")
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self.report(node, "imports 'numpy.random'; use "
                                      "StreamRegistry streams")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        assert self.module is not None
        target = self.module.imports.resolve(node)
        if target is None:
            return
        for banned in self.BANNED_MODULES:
            if target.startswith(banned + "."):
                self.report(node,
                            f"uses global RNG '{target}'; draw from a "
                            f"named StreamRegistry stream instead")
                return


# ----------------------------------------------------------------------
class PicklableTaskRule(Rule):
    """Lambdas/closures must not be handed to the parallel runner.

    ``repro.parallel.run_tasks`` ships each :class:`~repro.parallel.
    Task` to a worker process via pickling.  Lambdas and functions
    defined inside another function cannot be pickled, so the sweep
    dies at fan-out time — but only when ``--workers > 1``, which is
    exactly when nobody is watching.  Task functions must be
    module-level.
    """

    rule_id = "picklable-tasks"
    summary = ("lambda or nested function handed to repro.parallel "
               "(Task/run_tasks); task functions must be module-level "
               "and picklable")

    TARGETS: typing.ClassVar[frozenset[str]] = frozenset({
        "repro.parallel.Task", "repro.parallel.run_tasks",
    })

    def __init__(self) -> None:
        super().__init__()
        self._nested: set[str] = set()

    def begin_module(self, module: SourceModule) -> None:
        super().begin_module(module)
        self._nested = _nested_function_names(module.tree)

    def visit_Call(self, node: ast.Call) -> None:
        assert self.module is not None
        target = self.module.imports.resolve(node.func)
        if target not in self.TARGETS:
            return
        short = target.rsplit(".", 1)[1]
        fn_args: list[ast.expr] = []
        if node.args:
            fn_args.append(node.args[0])
        fn_args.extend(kw.value for kw in node.keywords
                       if kw.arg in ("fn", "tasks"))
        for arg in fn_args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    self.report(sub,
                                f"lambda passed to {short}(); lambdas "
                                f"cannot be pickled to worker "
                                f"processes")
                elif (isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.id in self._nested):
                    self.report(sub,
                                f"nested function '{sub.id}' passed to "
                                f"{short}(); closures cannot be "
                                f"pickled to worker processes")


def _nested_function_names(tree: ast.Module) -> set[str]:
    """Names of functions defined inside another function."""
    nested: set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            is_func = isinstance(child, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
            if is_func and inside_function:
                nested.add(child.name)  # type: ignore[attr-defined]
            walk(child, inside_function or is_func)

    walk(tree, False)
    return nested


# ----------------------------------------------------------------------
class SlotsHygieneRule(Rule):
    """Hot-path subclasses must declare ``__slots__``; no shared state.

    The event kernel allocates events, transactions and lock records
    millions of times per run; PR 3's 1.44x event-rate win rests on
    them being ``__slots__``-based.  A subclass without ``__slots__``
    silently re-grows a per-instance ``__dict__`` and undoes that.
    Class-level mutable defaults (``cache = {}``) are shared across
    every instance — a determinism hazard when two simulations run in
    one process.
    """

    rule_id = "slots-hygiene"
    summary = ("hot-path subclass without __slots__, or class-level "
               "mutable default shared across instances")
    scope = HOT_PATHS

    def __init__(self) -> None:
        super().__init__()
        self._slotted: set[str] = set()

    def prepare(self,
                modules: typing.Sequence[SourceModule]) -> None:
        for module in modules:
            if not self.applies_to(module):
                continue
            for node in ast.walk(module.tree):
                if (isinstance(node, ast.ClassDef)
                        and _declares_slots(node)):
                    self._slotted.add(node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        slotted_bases = [base for base in node.bases
                         if _base_name(base) in self._slotted]
        if slotted_bases and not _declares_slots(node):
            names = ", ".join(sorted(_base_name(b) or "?"
                                     for b in slotted_bases))
            self.report(node,
                        f"class '{node.name}' subclasses __slots__ "
                        f"class(es) {names} but declares no __slots__ "
                        f"(re-introduces a per-instance __dict__ on a "
                        f"hot path)")
        for stmt in node.body:
            target = _class_attr_target(stmt)
            if target is None or target == "__slots__":
                continue
            value = stmt.value  # type: ignore[attr-defined]
            if _is_mutable_literal(value):
                self.report(stmt,
                            f"class-level mutable default "
                            f"'{node.name}.{target}' is shared by "
                            f"every instance; initialise it in "
                            f"__init__ instead")


def _declares_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if _class_attr_target(stmt) == "__slots__":
            return True
    return False


def _class_attr_target(stmt: ast.stmt) -> str | None:
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target = stmt.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _base_name(base: ast.expr) -> str | None:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _is_mutable_literal(value: ast.expr | None) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return True
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "dict", "set")
            and not value.args and not value.keywords)


# ----------------------------------------------------------------------
class ClockEqualityRule(Rule):
    """No ``==``/``!=`` against the simulated clock.

    ``Environment.now`` is a float accumulated by event stepping;
    whether two times compare exactly equal depends on summation
    order, which is exactly what changes between runs and platforms.
    Use ``<=``/``>=`` windows or an explicit tolerance.
    """

    rule_id = "no-float-eq-on-clock"
    summary = ("== / != comparison against the simulated clock "
               "(.now); use an ordering or a tolerance")

    def visit_Compare(self, node: ast.Compare) -> None:
        if not any(isinstance(op, (ast.Eq, ast.NotEq))
                   for op in node.ops):
            return
        for operand in (node.left, *node.comparators):
            if _is_clock_expr(operand):
                self.report(node,
                            "exact equality against the simulated "
                            "clock is float-summation luck; compare "
                            "with an ordering or tolerance")
                return


def _is_clock_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "now":
        return True
    return isinstance(node, ast.Name) and node.id == "now"


# ----------------------------------------------------------------------
class ExceptionHygieneRule(Rule):
    """No bare ``except:``; no swallow-and-``pass`` on hot paths.

    The invariant monitor (``repro.sim.invariants``) and the WAL's
    crash-consistency checks surface violations as exceptions.  A bare
    ``except:`` (which also eats ``KeyboardInterrupt``) or a broad
    handler whose body is just ``pass`` hides exactly the failures
    those subsystems exist to report.
    """

    rule_id = "exception-hygiene"
    summary = ("bare except, or broad except-and-pass in a "
               "scheduler/db/sim hot path")

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        assert self.module is not None
        if node.type is None:
            self.report(node,
                        "bare 'except:' catches SystemExit and "
                        "KeyboardInterrupt; name the exception(s)")
            return
        in_hot_path = any(
            self.module.relpath == prefix
            or self.module.relpath.startswith(prefix + "/")
            for prefix in HOT_PATHS)
        if not in_hot_path:
            return
        is_broad = (isinstance(node.type, ast.Name)
                    and node.type.id in ("Exception", "BaseException"))
        only_pass = (len(node.body) == 1
                     and isinstance(node.body[0], ast.Pass))
        if is_broad and only_pass:
            self.report(node,
                        "broad except-and-pass on a hot path swallows "
                        "invariant violations; handle or re-raise")


# ----------------------------------------------------------------------
class AmbientEntropyRule(Rule):
    """No OS entropy: schedules must derive from the master seed alone.

    The chaos harness's whole value rests on ``repro chaos --seed N``
    reproducing bit-identical schedules, verdicts, and shrunk repro
    artifacts.  ``os.urandom``, ``uuid.uuid4`` and the ``secrets``
    module read kernel entropy that no seed controls — one call
    anywhere in simulation or fault code silently turns a repro
    artifact into a one-off.  (Wall clocks, the other ambient entropy
    source, are banned by ``no-wall-clock``.)
    """

    rule_id = "no-ambient-entropy"
    summary = ("OS entropy read (os.urandom/uuid4/secrets); derive all "
               "randomness from seeded StreamRegistry streams")

    BANNED: typing.ClassVar[frozenset[str]] = frozenset({
        "os.urandom", "os.getrandom",
        "uuid.uuid1", "uuid.uuid4",
    })
    BANNED_MODULES: typing.ClassVar[frozenset[str]] = frozenset({
        "secrets",
    })

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name in self.BANNED_MODULES:
                self.report(node,
                            f"imports '{alias.name}' (kernel entropy); "
                            f"derive randomness from StreamRegistry "
                            f"streams")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return
        if node.module in self.BANNED_MODULES:
            self.report(node,
                        f"imports from '{node.module}' (kernel "
                        f"entropy); derive randomness from "
                        f"StreamRegistry streams")
            return
        for alias in node.names:
            if f"{node.module}.{alias.name}" in self.BANNED:
                self.report(node,
                            f"imports the entropy source "
                            f"'{node.module}.{alias.name}'")

    def _check(self, node: ast.expr) -> None:
        assert self.module is not None
        target = self.module.imports.resolve(node)
        if target is None:
            return
        if target in self.BANNED or any(
                target.startswith(mod + ".")
                for mod in self.BANNED_MODULES):
            self.report(node,
                        f"reads OS entropy via '{target}'; no seed "
                        f"reproduces it — use a named StreamRegistry "
                        f"stream")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._check(node)


# ----------------------------------------------------------------------
class SingleEventQueueRule(Rule):
    """Only ``sim.environment`` may own an event-queue implementation.

    The kernel's fidelity guarantee — every event dispatches in exact
    ``(time, priority, eid)`` order — holds because that tie-break
    lives in one module.  A second queue silently forks the contract,
    so no other module of the kernel package (``repro.sim``) may import
    ``heapq``.  ``heapq`` outside the kernel package — e.g. the
    transaction queues in ``repro.scheduling`` — orders transactions,
    not events, and stays legal.
    """

    rule_id = "single-event-queue"
    summary = ("event-queue implementation outside sim.environment "
               "(heapq in the kernel package)")
    scope = ("src/repro/sim",)
    exempt = ("src/repro/sim/environment.py",)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "heapq":
                self.report(node,
                            "imports heapq inside the kernel package; "
                            "the event queue lives in sim.environment "
                            "only")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "heapq" and not node.level:
            self.report(node,
                        "imports from heapq inside the kernel package; "
                        "the event queue lives in sim.environment only")


# ----------------------------------------------------------------------
class EntropyTaintRule(Rule):
    """Host entropy may not flow into event scheduling — even indirectly.

    ``no-wall-clock`` and ``no-ambient-entropy`` ban *reading* host
    entropy in simulation code; this rule bans *using* it to decide
    when events fire.  It is interprocedural: a helper that returns
    ``time.monotonic()`` taints its callers through the project call
    graph (:class:`~repro.analysis.core.ProjectGraph`), so laundering a
    wall-clock read through a function return still trips the rule at
    the ``schedule()``/``timeout()`` call site.

    Sources are wall clocks (``time.*``, ``datetime.*``), OS entropy
    (``os.urandom``, ``uuid.uuid4``, ``secrets.*``), and *unseeded*
    RNGs — ``random.Random()`` / ``numpy.random.default_rng()`` with a
    seed argument are legal, the global-state draws (``random.random``
    et al.) never are.  The analysis propagates taint through local
    assignments flow-insensitively and through function returns to a
    fixpoint; it under-approximates aliasing (containers, attributes),
    so it misses some flows but does not invent them.
    """

    rule_id = "no-entropy-taint"
    summary = ("host-entropy value (wall clock, os.urandom, unseeded "
               "RNG) flows into schedule()/timeout(); event timing "
               "must derive from simulated state and seeded streams")

    #: The live gateway's clock module is *about* host time.
    exempt = ("src/repro/serve/clock.py",)

    #: Call names that put a delay/interval on the event queue (or, for
    #: ``advance``, move the clock by one in its place).
    SINKS: typing.ClassVar[frozenset[str]] = frozenset({
        "schedule", "timeout", "call_periodic", "advance",
    })
    SOURCE_EXACT: typing.ClassVar[frozenset[str]] = frozenset({
        "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    })
    #: Seedable constructors: tainted only when called with no seed.
    SEEDABLE: typing.ClassVar[frozenset[str]] = frozenset({
        "random.Random", "numpy.random.default_rng",
        "numpy.random.RandomState",
    })
    SOURCE_PREFIXES: typing.ClassVar[tuple[str, ...]] = (
        "time.", "datetime.", "secrets.", "random.", "numpy.random.",
    )

    _COMPOUND: typing.ClassVar[tuple[type[ast.stmt], ...]] = (
        ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
        ast.AsyncWith, ast.Try,
    )

    def __init__(self) -> None:
        super().__init__()
        self._graph: ProjectGraph | None = None
        #: qualified names of functions whose return value is tainted
        self._tainted_fns: set[str] = set()

    # -- interprocedural fixpoint --------------------------------------
    def prepare(self, modules: typing.Sequence[SourceModule]) -> None:
        self._graph = ProjectGraph(modules)
        changed = True
        while changed:
            changed = False
            for qualname, fn in self._graph.functions.items():
                if qualname in self._tainted_fns:
                    continue
                module = self._graph.function_module[qualname]
                if self._scan_body(module, fn.body, set(),
                                   report=False):
                    self._tainted_fns.add(qualname)
                    changed = True

    # -- taint of one expression ---------------------------------------
    def _is_source(self, module: SourceModule, call: ast.Call) -> bool:
        target = module.imports.resolve(call.func)
        if target is None:
            return False
        if target in self.SOURCE_EXACT:
            return True
        if target in self.SEEDABLE:
            return not call.args and not call.keywords
        return target.startswith(self.SOURCE_PREFIXES)

    def _expr_tainted(self, module: SourceModule, expr: ast.expr,
                      env: set[str]) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                if self._is_source(module, node):
                    return True
                if self._graph is not None:
                    callee = self._graph.resolve_callee(module,
                                                        node.func)
                    if callee in self._tainted_fns:
                        return True
            elif (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in env):
                return True
        return False

    # -- statement scan -------------------------------------------------
    def _scan_body(self, module: SourceModule,
                   body: typing.Sequence[ast.stmt], env: set[str],
                   report: bool) -> bool:
        """Walk ``body`` propagating taint; True iff a return is tainted.

        ``env`` is the set of tainted local names, mutated in place.
        With ``report=True`` (the per-file visit), sink calls with a
        tainted argument are reported; with ``report=False`` (the
        prepare fixpoint) the scan only classifies returns.
        """
        returns_tainted = False
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # separate scope, analysed on its own
            if isinstance(stmt, self._COMPOUND):
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    if self._expr_tainted(module, stmt.iter, env):
                        env.update(_target_names(stmt.target))
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        if (item.optional_vars is not None
                                and self._expr_tainted(
                                    module, item.context_expr, env)):
                            env.update(
                                _target_names(item.optional_vars))
                for sub in _sub_bodies(stmt):
                    if self._scan_body(module, sub, env, report):
                        returns_tainted = True
                continue
            if report:
                self._check_sinks(module, stmt, env)
            if isinstance(stmt, ast.Return):
                if stmt.value is not None and self._expr_tainted(
                        module, stmt.value, env):
                    returns_tainted = True
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign,
                                   ast.AugAssign)):
                names = self._assigned_names(stmt)
                value = stmt.value
                if value is not None and self._expr_tainted(
                        module, value, env):
                    env.update(names)
                elif not isinstance(stmt, ast.AugAssign):
                    env.difference_update(names)
        return returns_tainted

    @staticmethod
    def _assigned_names(
            stmt: ast.Assign | ast.AnnAssign | ast.AugAssign
    ) -> set[str]:
        if isinstance(stmt, ast.Assign):
            names: set[str] = set()
            for target in stmt.targets:
                names.update(_target_names(target))
            return names
        return _target_names(stmt.target)

    def _check_sinks(self, module: SourceModule, stmt: ast.stmt,
                     env: set[str]) -> None:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name not in self.SINKS:
                continue
            args = [*node.args,
                    *(kw.value for kw in node.keywords)]
            for arg in args:
                if self._expr_tainted(module, arg, env):
                    self.report(
                        node,
                        f"host-entropy value flows into '{name}()'; "
                        f"event timing must derive from simulated "
                        f"state and seeded StreamRegistry streams "
                        f"(taint tracked through function returns)")
                    break

    # -- per-file visit -------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        assert self.module is not None
        self._scan_body(self.module, node.body, set(), report=True)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        assert self.module is not None
        self._scan_body(self.module, node.body, set(), report=True)

    def visit_AsyncFunctionDef(self,
                               node: ast.AsyncFunctionDef) -> None:
        assert self.module is not None
        self._scan_body(self.module, node.body, set(), report=True)


def _target_names(target: ast.expr) -> set[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    names: set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _sub_bodies(
        stmt: ast.stmt) -> typing.Iterator[typing.Sequence[ast.stmt]]:
    for field in ("body", "orelse", "finalbody"):
        sub = getattr(stmt, field, None)
        if sub:
            yield sub
    for handler in getattr(stmt, "handlers", ()):
        yield handler.body


# ----------------------------------------------------------------------
class SetIterationRule(Rule):
    """Library code may not iterate over sets.

    Python sets iterate in hash order, and ``PYTHONHASHSEED`` makes
    that order differ between *processes* — the classic way a replay
    is bit-identical on the developer's machine and divergent in CI.
    Membership tests, ``len()``, and set algebra are all fine; what is
    banned is anything that *observes the order*: ``for`` loops,
    comprehension iterables, ``list(s)``/``tuple(s)``/``iter(s)``/
    ``enumerate(s)``, and ``", ".join(s)``.  The deterministic escape
    hatch is always ``sorted(s)``, which the rule deliberately allows.

    Detection is type-light: an expression is set-ish if it is a set
    literal/comprehension, a ``set()``/``frozenset()`` call, set
    algebra over a set-ish operand, a local name bound or annotated
    set-ish, or a ``self.x`` attribute annotated set-ish in its class
    body.  Unknown expressions are assumed not to be sets, so the rule
    under-approximates rather than guessing.
    """

    rule_id = "no-set-iteration"
    summary = ("iteration over a set observes hash-randomized order; "
               "iterate sorted(the_set) instead")
    scope = ("src/repro",)

    #: set-returning methods of set objects
    SET_METHODS: typing.ClassVar[frozenset[str]] = frozenset({
        "union", "intersection", "difference",
        "symmetric_difference", "copy",
    })
    #: calls whose result order mirrors the argument's iteration order
    ORDER_SENSITIVE_CALLS: typing.ClassVar[frozenset[str]] = frozenset({
        "list", "tuple", "iter", "enumerate",
    })
    _SET_ANNOTATIONS: typing.ClassVar[frozenset[str]] = frozenset({
        "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
        "MutableSet",
    })

    def __init__(self) -> None:
        super().__init__()
        self._set_names: set[str] = set()
        self._set_attrs: set[str] = set()

    def begin_module(self, module: SourceModule) -> None:
        super().begin_module(module)
        self._set_names = set()
        self._set_attrs = set()
        # Two passes so a name annotated below its first use still
        # counts; assignments of set-ish values come second because
        # they may reference names collected in the first pass.
        for node in ast.walk(module.tree):
            if isinstance(node, ast.AnnAssign) and \
                    self._is_set_annotation(node.annotation):
                self._bind_target(node.target)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and \
                    self._is_setish(node.value):
                for target in node.targets:
                    self._bind_target(target)

    def _bind_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self._set_names.add(target.id)
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            self._set_attrs.add(target.attr)

    def _is_set_annotation(self, annotation: ast.expr) -> bool:
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            return node.attr in self._SET_ANNOTATIONS
        return (isinstance(node, ast.Name)
                and node.id in self._SET_ANNOTATIONS)

    def _is_setish(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and \
                    func.id in ("set", "frozenset"):
                return True
            return (isinstance(func, ast.Attribute)
                    and func.attr in self.SET_METHODS
                    and self._is_setish(func.value))
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return (self._is_setish(node.left)
                    or self._is_setish(node.right))
        if isinstance(node, ast.Name):
            return node.id in self._set_names
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return node.attr in self._set_attrs
        return False

    def _flag(self, node: ast.AST, how: str) -> None:
        self.report(node,
                    f"{how} iterates a set in hash-randomized order; "
                    f"iterate sorted(...) for a replay-stable order")

    def visit_For(self, node: ast.For) -> None:
        if self._is_setish(node.iter):
            self._flag(node, "for loop")

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        if self._is_setish(node.iter):
            self._flag(node, "async for loop")

    def _check_comprehension(
            self, node: (ast.ListComp | ast.SetComp | ast.GeneratorExp
                         | ast.DictComp)) -> None:
        for gen in node.generators:
            if self._is_setish(gen.iter):
                self._flag(node, "comprehension")
                return

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Name)
                and func.id in self.ORDER_SENSITIVE_CALLS
                and node.args and self._is_setish(node.args[0])):
            self._flag(node, f"{func.id}() over a set")
        elif (isinstance(func, ast.Attribute) and func.attr == "join"
                and node.args and self._is_setish(node.args[0])):
            self._flag(node, "str.join() over a set")


ALL_RULES: tuple[type[Rule], ...] = (
    WallClockRule,
    GlobalRngRule,
    PicklableTaskRule,
    SlotsHygieneRule,
    ClockEqualityRule,
    ExceptionHygieneRule,
    AmbientEntropyRule,
    SingleEventQueueRule,
    EntropyTaintRule,
    SetIterationRule,
)
