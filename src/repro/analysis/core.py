"""simlint core: file walker, rule visitors, suppressions, reporters.

The framework is deliberately small and dependency-free:

* :class:`SourceModule` — one parsed file: source text, AST, an import
  table mapping local names to fully-qualified targets, and the parsed
  inline suppressions.
* :class:`Rule` — base class for checks.  A rule declares ``rule_id``
  and ``summary``, optionally restricts itself to path globs
  (``scope``) or exempts paths (``exempt``), and implements ordinary
  ``ast.NodeVisitor``-style ``visit_<NodeType>`` methods.  All active
  rules share a single AST walk per file.  Rules that need
  cross-module state (e.g. "which classes declare ``__slots__``?")
  implement :meth:`Rule.prepare`, which runs over the whole file set
  before any file is visited.
* :class:`Finding` — one diagnostic, with stable ``path:line:col``
  location and rule id, renderable as text or JSON.

Suppressions
------------

A finding is suppressed by a trailing (or immediately preceding)
comment::

    t0 = time.time()  # repro: lint-ignore[no-wall-clock] host benchmark

``lint-ignore`` with no bracket suppresses every rule on that line.
Project-wide exceptions live in ``pyproject.toml``::

    [tool.repro.lint.allow]
    no-wall-clock = ["benchmarks/test_parallel_speedup.py"]

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage/configuration
error.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import fnmatch
import json
import pathlib
import re
import sys
import typing

__all__ = ["EXIT_CLEAN", "EXIT_ERROR", "EXIT_FINDINGS", "Finding",
           "ImportTable", "LintConfig", "ProjectGraph", "Rule",
           "SourceModule", "apply_rules", "lint_paths", "main",
           "render_json", "render_sarif", "render_text"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2

#: Rule id attached to files that do not parse.
SYNTAX_RULE_ID = "syntax-error"

_IGNORE_RE = re.compile(
    r"#\s*repro:\s*lint-ignore(?:\[(?P<ids>[^\]]*)\])?")


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: where, which rule, and what is wrong."""

    path: str       #: repo-relative posix path
    line: int       #: 1-based line number
    col: int        #: 1-based column number
    rule_id: str
    message: str

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")

    def to_dict(self) -> dict[str, typing.Any]:
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# Import resolution
# ----------------------------------------------------------------------
class ImportTable:
    """Local name -> fully-qualified dotted target, per module.

    ``import time as t`` binds ``t -> time``; ``from repro.parallel
    import Task`` binds ``Task -> repro.parallel.Task``.  Relative
    imports are resolved against nothing (their targets stay relative,
    prefixed with dots stripped) because simlint's rules only match
    absolute stdlib/third-party targets.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.bindings: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.bindings[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.bindings[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Fully-qualified dotted name for ``node``, if import-derived.

        ``Attribute`` chains are unwound, so with ``import numpy as
        np`` the expression ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng``.  Returns ``None`` for anything
        not rooted in an imported name.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.bindings.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Parsed source files
# ----------------------------------------------------------------------
class SourceModule:
    """One file under analysis: text, AST, imports, suppressions."""

    def __init__(self, path: pathlib.Path, relpath: str,
                 text: str) -> None:
        self.path = path
        self.relpath = relpath
        self.text = text
        self.tree = ast.parse(text, filename=str(path))
        self.imports = ImportTable(self.tree)
        #: line number -> frozenset of suppressed rule ids, or None
        #: meaning "suppress every rule on this line".
        self.suppressions: dict[int, frozenset[str] | None] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _IGNORE_RE.search(line)
            if match is None:
                continue
            ids = match.group("ids")
            if ids is None:
                self.suppressions[lineno] = None
            else:
                self.suppressions[lineno] = frozenset(
                    part.strip() for part in ids.split(",")
                    if part.strip())
        #: ``def``/``class`` line -> first decorator line.  Findings
        #: anchor on the ``def`` line, but humans put the suppression
        #: marker where the statement starts — on or above the first
        #: decorator — so :meth:`is_suppressed` must scan the span.
        self.decorator_spans: dict[int, int] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.decorator_list:
                self.decorator_spans[node.lineno] = \
                    node.decorator_list[0].lineno

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        """True if ``rule_id`` is suppressed on ``line``.

        A marker suppresses findings on its own line and, when it is
        the only content of its line, on the following line — so a
        suppression can sit above a long statement.  For a decorated
        ``def``/``class`` (findings anchor on the ``def`` line) the
        whole decorator span counts as "its own line": a marker on any
        decorator line, or comment-only above the first decorator,
        suppresses too.
        """
        #: (marker line, must the line be comment-only to count)
        candidates = [(line, False), (line - 1, True)]
        span_start = self.decorator_spans.get(line)
        if span_start is not None:
            candidates.extend((n, False) for n in range(span_start, line))
            candidates.append((span_start - 1, True))
        for marker_line, comment_only in candidates:
            if marker_line not in self.suppressions:
                continue
            if comment_only:
                stripped = self.text.splitlines()[marker_line - 1].strip()
                if not stripped.startswith("#"):
                    continue
            ids = self.suppressions[marker_line]
            if ids is None or rule_id in ids:
                return True
        return False


# ----------------------------------------------------------------------
# Project import/call graph
# ----------------------------------------------------------------------
class ProjectGraph:
    """A project-wide import and call graph over the linted file set.

    Built once per lint run (rules construct it in :meth:`Rule.prepare`)
    from the already-parsed :class:`SourceModule` set — no file is read
    twice.  The graph gives interprocedural rules three things:

    * :attr:`functions` — every module-level function and class method,
      keyed by dotted qualified name (``repro.sim.rng.StreamRegistry.
      stream``); nested functions are not registered (they are part of
      their enclosing function's body).
    * :attr:`calls` — per function, the set of *resolved* callee names:
      import-rooted targets (``time.monotonic``), same-module functions,
      and unambiguous ``self.``/``cls.`` method calls.  Unresolvable
      callees are simply absent — the graph under-approximates, which
      for lint rules means missed findings, never false ones.
    * :attr:`imports` — per module, the imported module names.
    """

    def __init__(self,
                 modules: typing.Sequence[SourceModule]) -> None:
        #: relpath -> dotted module name
        self.module_names: dict[str, str] = {
            module.relpath: self.module_name(module.relpath)
            for module in modules}
        self.functions: dict[
            str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        self.function_module: dict[str, SourceModule] = {}
        self.imports: dict[str, frozenset[str]] = {}
        #: (module name, method name) -> qualified names defining it
        self._methods: dict[tuple[str, str], list[str]] = {}
        for module in modules:
            self._register(module)
        self.calls: dict[str, frozenset[str]] = {}
        for qualname, fn in self.functions.items():
            owner = self.function_module[qualname]
            callees = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    target = self.resolve_callee(owner, node.func)
                    if target is not None:
                        callees.add(target)
            self.calls[qualname] = frozenset(callees)

    @staticmethod
    def module_name(relpath: str) -> str:
        """Dotted module name for a repo-relative path.

        ``src/repro/sim/environment.py`` -> ``repro.sim.environment``;
        package ``__init__`` files name the package itself.
        """
        parts = list(pathlib.PurePosixPath(relpath).parts)
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1].endswith(".py"):
            parts[-1] = parts[-1][:-3]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def _register(self, module: SourceModule) -> None:
        mod = self.module_names[module.relpath]
        imported: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                if node.module and not node.level:
                    imported.add(node.module)
        self.imports[mod] = frozenset(imported)

        def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{child.name}"
                    if qualname not in self.functions:
                        self.functions[qualname] = child
                        self.function_module[qualname] = module
                        if in_class:
                            self._methods.setdefault(
                                (mod, child.name), []).append(qualname)
                    # nested defs stay part of this function's body
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}", True)

        visit(module.tree, mod, False)

    def resolve_callee(self, module: SourceModule,
                       node: ast.expr) -> str | None:
        """Qualified name a callee expression refers to, if resolvable."""
        target = module.imports.resolve(node)
        if target is not None:
            return target
        mod = self.module_names[module.relpath]
        if isinstance(node, ast.Name):
            qualname = f"{mod}.{node.id}"
            return qualname if qualname in self.functions else None
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")):
            candidates = self._methods.get((mod, node.attr), [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def callees(self, qualname: str) -> frozenset[str]:
        return self.calls.get(qualname, frozenset())

    def transitive_callees(self, qualname: str) -> frozenset[str]:
        """Every function reachable from ``qualname`` via call edges."""
        seen: set[str] = set()
        frontier = [qualname]
        while frontier:
            current = frontier.pop()
            for callee in self.calls.get(current, frozenset()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return frozenset(seen)


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
class Rule:
    """Base class for simlint checks.

    Subclasses set :attr:`rule_id` and :attr:`summary`, optionally
    narrow :attr:`scope` / :attr:`exempt` (fnmatch globs over the
    repo-relative posix path; a bare directory prefix such as
    ``src/repro/db`` matches everything beneath it), and implement
    ``visit_<NodeType>`` methods.  Inside a visit method,
    :meth:`report` records a finding against the current module.
    """

    rule_id: typing.ClassVar[str] = ""
    summary: typing.ClassVar[str] = ""
    #: restrict the rule to these path globs (empty = everywhere)
    scope: typing.ClassVar[tuple[str, ...]] = ()
    #: never run the rule on these paths (built-in exemptions)
    exempt: typing.ClassVar[tuple[str, ...]] = ()

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.module: SourceModule | None = None

    # -- lifecycle ------------------------------------------------------
    def prepare(self, modules: typing.Sequence[SourceModule]) -> None:
        """Cross-module pre-pass; runs once before any file is visited."""

    def begin_module(self, module: SourceModule) -> None:
        self.module = module

    def end_module(self) -> None:
        self.module = None

    def applies_to(self, module: SourceModule) -> bool:
        if _matches_any(module.relpath, self.exempt):
            return False
        return not self.scope or _matches_any(module.relpath, self.scope)

    # -- reporting ------------------------------------------------------
    def report(self, node: ast.AST, message: str) -> None:
        assert self.module is not None
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if self.module.is_suppressed(line, self.rule_id):
            return
        self.findings.append(Finding(self.module.relpath, line, col,
                                     self.rule_id, message))


def _matches_any(relpath: str, patterns: typing.Iterable[str]) -> bool:
    for pattern in patterns:
        pattern = pattern.rstrip("/")
        if (relpath == pattern
                or relpath.startswith(pattern + "/")
                or fnmatch.fnmatch(relpath, pattern)):
            return True
    return False


class _Walker(ast.NodeVisitor):
    """Single AST walk dispatching each node to every active rule."""

    def __init__(self, rules: typing.Sequence[Rule]) -> None:
        self._handlers: dict[str, list[typing.Callable[[ast.AST], None]]]
        self._handlers = {}
        for rule in rules:
            for name in dir(rule):
                if name.startswith("visit_"):
                    node_type = name[len("visit_"):]
                    self._handlers.setdefault(node_type, []).append(
                        getattr(rule, name))

    def visit(self, node: ast.AST) -> None:
        for handler in self._handlers.get(type(node).__name__, ()):
            handler(node)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Project lint settings, from ``[tool.repro.lint]``.

    ``exclude`` drops files from the walk entirely; ``allow`` maps a
    rule id to path globs on which that rule's findings are waived
    (the project-level allowlist); ``select`` restricts the run to a
    subset of rule ids (empty = all rules).
    """

    exclude: tuple[str, ...] = ()
    allow: dict[str, tuple[str, ...]] = \
        dataclasses.field(default_factory=dict)
    select: tuple[str, ...] = ()

    @classmethod
    def load(cls, root: pathlib.Path) -> "LintConfig":
        """Read ``[tool.repro.lint]`` from ``root / pyproject.toml``."""
        pyproject = root / "pyproject.toml"
        if not pyproject.is_file():
            return cls()
        try:
            import tomllib
        except ModuleNotFoundError:
            # Python 3.10: the same API, from PyPI.
            import tomli as tomllib  # type: ignore[import-not-found,no-redef]
        try:
            data = tomllib.loads(pyproject.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise LintUsageError(f"cannot parse {pyproject}: {exc}") \
                from exc
        section = data.get("tool", {}).get("repro", {}).get("lint", {})
        allow = {rule_id: tuple(paths) for rule_id, paths
                 in section.get("allow", {}).items()}
        return cls(exclude=tuple(section.get("exclude", ())),
                   allow=allow,
                   select=tuple(section.get("select", ())))

    def allows(self, finding: Finding) -> bool:
        return _matches_any(finding.path,
                            self.allow.get(finding.rule_id, ()))


class LintUsageError(Exception):
    """Bad invocation or configuration; maps to exit code 2."""


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------
_SKIP_DIRS = {"__pycache__", ".git", ".mypy_cache", ".pytest_cache",
              ".ruff_cache", ".hypothesis"}


def _collect_files(paths: typing.Sequence[str | pathlib.Path],
                   root: pathlib.Path,
                   config: LintConfig) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    seen: set[pathlib.Path] = set()
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts)))
        elif path.is_file():
            candidates = [path]
        else:
            raise LintUsageError(f"no such file or directory: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            if _matches_any(_relpath(candidate, root), config.exclude):
                continue
            files.append(candidate)
    return files


def _relpath(path: pathlib.Path, root: pathlib.Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def find_project_root(
        start: pathlib.Path | None = None) -> pathlib.Path:
    """Nearest ancestor of ``start`` containing a ``pyproject.toml``."""
    probe = (start or pathlib.Path.cwd()).resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def _make_rules(config: LintConfig) -> list[Rule]:
    from .rules import ALL_RULES
    by_id = {rule_cls.rule_id: rule_cls for rule_cls in ALL_RULES}
    wanted = config.select or tuple(by_id)
    unknown = set(wanted) - set(by_id)
    if unknown:
        raise LintUsageError(
            f"unknown rule id(s) {sorted(unknown)}; available: "
            f"{sorted(by_id)}")
    return [by_id[rule_id]() for rule_id in wanted]


def lint_paths(paths: typing.Sequence[str | pathlib.Path],
               config: LintConfig | None = None,
               root: pathlib.Path | None = None) -> list[Finding]:
    """Lint ``paths`` (files or directories) and return the findings.

    ``root`` anchors repo-relative paths and, when ``config`` is not
    given, locates the ``pyproject.toml`` whose ``[tool.repro.lint]``
    section configures the run.
    """
    if not paths:
        raise LintUsageError("no paths given")
    if root is None:
        root = find_project_root(pathlib.Path(paths[0]))
    if config is None:
        config = LintConfig.load(root)
    rules = _make_rules(config)

    modules: list[SourceModule] = []
    findings: list[Finding] = []
    for path in _collect_files(paths, root, config):
        relpath = _relpath(path, root)
        try:
            modules.append(SourceModule(path, relpath,
                                        path.read_text()))
        except SyntaxError as exc:
            findings.append(Finding(relpath, exc.lineno or 1,
                                    (exc.offset or 0) + 1,
                                    SYNTAX_RULE_ID,
                                    f"file does not parse: {exc.msg}"))

    for rule in rules:
        rule.prepare(modules)
    for module in modules:
        active = [rule for rule in rules if rule.applies_to(module)]
        if not active:
            continue
        for rule in active:
            rule.begin_module(module)
        _Walker(active).visit(module.tree)
        for rule in active:
            rule.end_module()

    for rule in rules:
        findings.extend(f for f in rule.findings if not config.allows(f))
    return sorted(findings)


def apply_rules(module: SourceModule,
                rules: typing.Sequence[Rule]) -> list[Finding]:
    """Run ``rules`` over one in-memory module; no filesystem walk.

    Used by the planted-bug harness (``repro sanitize --planted-bug``)
    and tests, where the module under analysis is synthesised with a
    chosen ``relpath`` (rule scoping matches on the relpath, so a
    fixture can opt into ``src/repro``-scoped rules without living
    there).
    """
    active = [rule for rule in rules if rule.applies_to(module)]
    for rule in active:
        rule.prepare([module])
        rule.begin_module(module)
    _Walker(active).visit(module.tree)
    findings: list[Finding] = []
    for rule in active:
        rule.end_module()
        findings.extend(rule.findings)
    return sorted(findings)


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def render_text(findings: typing.Sequence[Finding],
                files_checked: int | None = None) -> str:
    lines = [finding.format() for finding in findings]
    tail = f"{len(findings)} finding(s)"
    if files_checked is not None:
        tail += f" in {files_checked} file(s)"
    lines.append(tail)
    return "\n".join(lines)


def render_json(findings: typing.Sequence[Finding]) -> str:
    return json.dumps({
        "findings": [finding.to_dict() for finding in findings],
        "count": len(findings),
    }, indent=2, sort_keys=True)


def render_sarif(findings: typing.Sequence[Finding],
                 rule_index: typing.Mapping[str, str] | None = None, *,
                 tool_name: str = "simlint") -> str:
    """Render findings as a SARIF 2.1.0 log (one run, one tool).

    ``rule_index`` maps rule ids to one-line descriptions for the
    driver's rule table; ids seen only in ``findings`` get an empty
    description.  The output is what GitHub code scanning ingests, so
    findings render as inline annotations on pull requests.
    """
    rules: dict[str, str] = dict(rule_index or {})
    for finding in findings:
        rules.setdefault(finding.rule_id, "")
    return json.dumps({
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool_name,
                "informationUri":
                    "https://github.com/example/repro",
                "rules": [{
                    "id": rule_id,
                    "shortDescription": {"text": summary or rule_id},
                } for rule_id, summary in sorted(rules.items())],
            }},
            "results": [{
                "ruleId": finding.rule_id,
                "level": "error",
                "message": {"text": finding.message},
                "locations": [{"physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": finding.line,
                               "startColumn": finding.col},
                }}],
            } for finding in findings],
        }],
    }, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# CLI (wired up as ``repro lint``)
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simlint: determinism-safety static analysis for "
                    "the simulator (see repro.analysis.rules)")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--format", default="text",
                        choices=("text", "json", "sarif"),
                        help="report format (default: text)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all rules)")
    parser.add_argument("--root", default=None,
                        help="project root for relative paths and "
                             "pyproject.toml config (default: nearest "
                             "ancestor with a pyproject.toml)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the available rules and exit")
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        from .rules import ALL_RULES
        for rule_cls in sorted(ALL_RULES, key=lambda r: r.rule_id):
            print(f"{rule_cls.rule_id}: {rule_cls.summary}")
        return EXIT_CLEAN

    root = pathlib.Path(args.root) if args.root else \
        find_project_root(pathlib.Path(args.paths[0]))
    try:
        config = LintConfig.load(root)
        if args.select:
            select = tuple(part.strip()
                           for part in args.select.split(",")
                           if part.strip())
            config = dataclasses.replace(config, select=select)
        files = _collect_files(args.paths, root, config)
        findings = lint_paths(args.paths, config=config, root=root)
    except LintUsageError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        print(render_json(findings))
    elif args.format == "sarif":
        from .rules import ALL_RULES
        rule_index = {rule_cls.rule_id: rule_cls.summary
                      for rule_cls in ALL_RULES}
        print(render_sarif(findings, rule_index))
    else:
        print(render_text(findings, files_checked=len(files)))
    return EXIT_FINDINGS if findings else EXIT_CLEAN
