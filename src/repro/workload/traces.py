"""Trace containers and I/O.

A :class:`Trace` is the replayable input of a simulation: time-ordered
queries (arrival, read set, service time) and updates (arrival, item,
service time, new value).  Quality contracts are *not* part of the trace —
the paper varies QCs over the same trace, so contracts are attached at
submission time by the experiment configuration.

A paper-scale trace is 579k transactions, so each stream is stored as
packed columns (:class:`RecordColumns`), validated and verified
time-ordered once, at construction.  ``trace.queries`` / ``trace.updates``
are read-only sequence views that build :class:`QueryRecord` /
:class:`UpdateRecord` values on demand; the arrival pump (:func:`drive`)
takes bare rows through :func:`replay_rows` and builds none.

Traces serialise to a simple two-file CSV format so generated workloads can
be inspected, versioned, and re-used across runs.
"""

from __future__ import annotations

import bisect
import collections.abc
import csv
import dataclasses
import itertools
import math
import operator
import pathlib
import sys
import typing
from array import array

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment
    from repro.sim.process import ProcessGenerator

Column = typing.MutableSequence[typing.Any]
Row = tuple[typing.Any, ...]

#: The storage contract, per record field: what every cell must be and the
#: C-level predicates that say so (a valid column costs one ``all`` each).
#: ``isfinite`` fields are packed as ``array('d')``, the rest kept as a list.
_CELL_RULES: dict[str, tuple[typing.Any, ...]] = {
    "arrival_ms": ("finite", math.isfinite),
    "exec_ms": ("finite and positive", math.isfinite, (0.0).__lt__),
    "value": ("finite", math.isfinite),
    "item": ("a non-empty symbol", bool),
    "items": ("a non-empty tuple of non-empty symbols", bool, all),
}


def _column(field: str, cells: typing.Iterable[typing.Any]) -> Column:
    """``cells`` in storage form (adopted as is when already in it), or
    ``ValueError`` naming the first row that breaks the field's rules."""
    what, *rules = _CELL_RULES[field]
    if math.isfinite in rules:
        column: Column = (cells if isinstance(cells, array)
                          else array("d", cells))
    else:
        column = cells if isinstance(cells, list) else list(cells)
    for ok in rules:
        if not all(map(ok, column)):
            row = next(i for i, cell in enumerate(column) if not ok(cell))
            raise ValueError(
                f"{field} must be {what}, got {column[row]!r} at row {row}")
    return column


def _fields(record: type) -> list[str]:
    return [field.name for field in dataclasses.fields(record)]


def _check_record(record: "QueryRecord | UpdateRecord") -> None:
    for field in _fields(type(record)):
        _column(field, (getattr(record, field),))


@dataclasses.dataclass(frozen=True, slots=True)
class QueryRecord:
    """One read-only query in a trace."""

    arrival_ms: float
    items: tuple[str, ...]
    exec_ms: float

    def __post_init__(self) -> None:
        _check_record(self)


@dataclasses.dataclass(frozen=True, slots=True)
class UpdateRecord:
    """One blind update in a trace."""

    arrival_ms: float
    item: str
    exec_ms: float
    value: float = 0.0

    def __post_init__(self) -> None:
        _check_record(self)


Record = typing.TypeVar("Record", QueryRecord, UpdateRecord)


class RecordColumns(collections.abc.Sequence[Record]):
    """A read-only, time-ordered sequence of records stored as columns.

    One column per record field, in field order (``arrival_ms`` first).
    Construction validates every cell (:data:`_CELL_RULES`) and *verifies*
    that arrivals are non-decreasing; nothing can change afterwards, so
    whoever holds a view holds a valid stream.  Indexing and iteration
    build records on demand; :meth:`rows` yields bare field-order tuples.
    """

    __slots__ = ("_record", "_columns")

    def __init__(self, record: type[Record],
                 *columns: typing.Iterable[typing.Any]) -> None:
        names = _fields(record)
        packed = tuple(map(_column, names, columns))
        if (len(columns) != len(names)
                or len({len(column) for column in packed}) != 1):
            raise ValueError(
                f"{record.__name__} needs equally long columns {names}")
        arrivals = packed[0]
        if not all(map(operator.le, arrivals,
                       itertools.islice(arrivals, 1, None))):
            row = next(i for i in range(1, len(arrivals))
                       if not arrivals[i - 1] <= arrivals[i])
            raise ValueError(
                f"malformed trace: {record.__name__} #{row} arrives at "
                f"{arrivals[row]:.3f} ms, before the previous one at "
                f"{arrivals[row - 1]:.3f} ms — arrival times must be "
                f"non-decreasing")
        self._record = record
        self._columns = packed

    @classmethod
    def of(cls, record: type[Record], records: typing.Sequence[Record], *,
           sort: bool = False) -> "RecordColumns[Record]":
        """``records`` as a view: a view is returned as is; any other
        sequence of records is packed and validated like new columns,
        after a stable sort by arrival if ``sort`` (else order is verified).
        """
        if isinstance(records, cls):
            return records
        if sort:
            records = sorted(records, key=operator.attrgetter("arrival_ms"))
        names = _fields(record)
        cells = list(zip(*map(operator.attrgetter(*names), records)))
        return cls(record, *(cells or [()] * len(names)))

    def rows(self) -> typing.Iterator[Row]:
        """Field-order tuples, one per record, with no record built."""
        return zip(*self._columns)

    def until(self, end_ms: float) -> "RecordColumns[Record]":
        """The prefix of rows arriving at or before ``end_ms``."""
        stop = bisect.bisect_right(self._columns[0], end_ms)
        return RecordColumns(
            self._record, *(column[:stop] for column in self._columns))

    def partition(self, field: str,
                  part_of: typing.Callable[[typing.Any], int],
                  n_parts: int) -> list[typing.Iterator[Row]]:
        """Stable split by ``part_of(row's field)``: one single-use
        :meth:`rows` stream per part, each still time-ordered, read off
        this view's columns as it is consumed (nothing is copied).
        ``part_of`` must be a function of the cell alone: it is asked
        once per distinct cell, not once per row."""
        cells = self._columns[_fields(self._record).index(field)]
        parts = {cell: part_of(cell) for cell in dict.fromkeys(cells)}
        members: list[list[int]] = [[] for _ in range(n_parts)]
        for row, part in enumerate(map(parts.__getitem__, cells)):
            members[part].append(row)
        return [zip(*(map(column.__getitem__, rows)
                      for column in self._columns))
                for rows in members]

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> typing.Iterator[Record]:
        return map(self._record, *self._columns)

    @typing.overload
    def __getitem__(self, index: int) -> Record:
        ...  # pragma: no cover

    @typing.overload
    def __getitem__(self, index: slice) -> list[Record]:
        ...  # pragma: no cover

    def __getitem__(self, index: int | slice) -> Record | list[Record]:
        cells = [column[index] for column in self._columns]
        if isinstance(index, slice):
            return list(map(self._record, *cells))
        return self._record(*cells)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordColumns):
            return (self._record is other._record
                    and self._columns == other._columns)
        if isinstance(other, collections.abc.Sequence):
            return (len(self) == len(other)
                    and all(map(operator.eq, self, other)))
        return NotImplemented

    def __repr__(self) -> str:
        return f"<RecordColumns {len(self)} x {self._record.__name__}>"


def replay_rows(record: type[Record],
                records: typing.Sequence[Record]) -> typing.Iterator[Row]:
    """The row iterator every runner hands the arrival pump.

    A trace's own view comes straight off its columns (``zip``: no
    per-arrival object).  Any other sequence of records is packed first,
    so a bad field or an arrival before its predecessor raises
    :class:`ValueError` instead of being replayed with zero delay (which
    would corrupt every rate-derived statistic).
    """
    return RecordColumns.of(record, records).rows()


def drive(env: "Environment", rows: typing.Iterable[Row],
          sink: typing.Callable[..., None],
          gate: typing.Callable[[], "ProcessGenerator"] | None = None,
          ) -> "ProcessGenerator":
    """The one arrival pump: per time-ordered row, wait until its arrival
    (overdue rows go at once), then out ``gate()`` if given (a stalled
    source parks there), then call ``sink(*row)`` — which stamps what it
    builds with ``env.now``, the delivery instant."""
    for row in rows:
        delay = row[0] - env.now
        if delay > 0:
            yield env.timeout(delay)
        if gate is not None:
            yield from gate()
        sink(*row)


class Trace:
    """A complete, time-ordered workload (queries + updates).

    ``queries`` / ``updates`` may be any sequences of records (sorted
    stably by arrival here) or ready-made :class:`RecordColumns`; either
    way they are held, and exposed, as read-only column views.
    """

    def __init__(self, queries: typing.Sequence[QueryRecord],
                 updates: typing.Sequence[UpdateRecord],
                 duration_ms: float,
                 name: str = "trace") -> None:
        if not duration_ms > 0:
            raise ValueError(f"duration must be positive, got {duration_ms}")
        self.queries = RecordColumns.of(QueryRecord, queries, sort=True)
        self.updates = RecordColumns.of(UpdateRecord, updates, sort=True)
        self.duration_ms = float(duration_ms)
        self.name = name
        for kind, view in (("query", self.queries), ("update", self.updates)):
            arrivals = view._columns[0]
            if view and not 0 <= arrivals[0] <= arrivals[-1] <= duration_ms:
                raise ValueError(
                    f"{kind} arrivals {arrivals[0]} .. {arrivals[-1]} "
                    f"outside [0, {duration_ms}]")

    def __repr__(self) -> str:
        return (f"<Trace {self.name!r} queries={len(self.queries)} "
                f"updates={len(self.updates)} "
                f"duration={self.duration_ms / 1000:.0f}s>")

    @property
    def stocks(self) -> frozenset[str]:
        """Every item referenced anywhere in the trace."""
        __, read_sets, __ = self.queries._columns
        __, written, __, __ = self.updates._columns
        return frozenset(itertools.chain(
            written, itertools.chain.from_iterable(read_sets)))

    def slice(self, end_ms: float, name: str | None = None) -> "Trace":
        """The prefix of the trace up to ``end_ms`` (for scaled-down runs)."""
        if not 0 < end_ms <= self.duration_ms:
            raise ValueError(f"end_ms must be in (0, {self.duration_ms}]")
        return Trace(self.queries.until(end_ms), self.updates.until(end_ms),
                     end_ms, name=name or f"{self.name}[:{end_ms:.0f}ms]")

    # ------------------------------------------------------------------
    # CSV persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | pathlib.Path) -> None:
        """Write ``queries.csv`` and ``updates.csv`` under ``directory``."""
        path = pathlib.Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "queries.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["arrival_ms", "items", "exec_ms"])
            for arrival_ms, items, exec_ms in self.queries.rows():
                writer.writerow([f"{arrival_ms:.17g}", "|".join(items),
                                 f"{exec_ms:.17g}"])
        with open(path / "updates.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["arrival_ms", "item", "exec_ms", "value"])
            for arrival_ms, item, exec_ms, value in self.updates.rows():
                writer.writerow([f"{arrival_ms:.17g}", item,
                                 f"{exec_ms:.17g}", f"{value:.17g}"])
        with open(path / "meta.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["name", "duration_ms"])
            writer.writerow([self.name, f"{self.duration_ms:.17g}"])

    @classmethod
    def load(cls, directory: str | pathlib.Path) -> "Trace":
        """Read a trace previously written by :meth:`save`; the rows are
        validated (and their order verified) like any other columns."""
        path = pathlib.Path(directory)
        queries = _read_csv(path / "queries.csv", QueryRecord, {
            "items": lambda cell: tuple(map(sys.intern, cell.split("|")))})
        updates = _read_csv(path / "updates.csv", UpdateRecord,
                            {"item": sys.intern})
        with open(path / "meta.csv", newline="") as handle:
            meta = next(iter(csv.DictReader(handle)))
        return cls(queries, updates, duration_ms=float(meta["duration_ms"]),
                   name=meta["name"])


def _read_csv(path: pathlib.Path, record: type[Record],
              parsers: dict[str, typing.Callable[[str], typing.Any]]
              ) -> RecordColumns[Record]:
    """One CSV file as a view: cells are floats unless ``parsers`` names
    their field (symbols are interned: one string per stock, not per row)."""
    names = _fields(record)
    columns: list[Column] = [[] if name in parsers else array("d")
                             for name in names]
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            for name, column in zip(names, columns):
                column.append(parsers.get(name, float)(row[name]))
    return RecordColumns(record, *columns)
