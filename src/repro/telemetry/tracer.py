"""The tracer: a bounded ring buffer of typed trace records.

Design constraints, in priority order:

1. **Determinism** — the tracer is a pure observer.  It never draws
   randomness, never schedules events, and stamps records with simulated
   time handed in by the caller; simulation results are byte-identical
   with tracing enabled or disabled.
2. **Zero overhead when off** — instrumentation points hold a
   ``Tracer | None`` and guard with ``if tracer is not None``; a
   disabled run never constructs a tracer, so the hot paths pay one
   pointer comparison at most (and the kernel loop pays nothing at all —
   see :meth:`repro.sim.environment.Environment.run`).
3. **Bounded memory when on** — records land in a ring buffer of
   ``buffer_size`` slots; once full, the oldest records are overwritten
   and counted in :attr:`Tracer.dropped` (the summary report surfaces
   the loss instead of silently truncating).
"""

from __future__ import annotations

import dataclasses
import typing

from .events import (CATEGORIES, CounterRecord, InstantRecord, SpanRecord,
                     TraceRecord)

#: Default ring capacity: ~1M records covers a standard-scale run with
#: every category on, at roughly 100 bytes/record of retained memory.
DEFAULT_BUFFER_SIZE = 1_000_000


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """What ``telemetry=`` takes to turn tracing on (``None`` is off).

    A plain, picklable value object so parallel sweep tasks can carry it
    to worker processes.  ``categories`` is the per-category enable set;
    the default traces everything.

    ``sample_rate`` keeps only a deterministic fraction of a category's
    records: a mapping (or tuple of pairs) ``{category: rate}`` with
    rates in ``(0, 1]``.  Sampling is stride-based — rate 0.1 keeps
    every 10th record of that category, counted per category — so it
    draws no randomness and the kept subset is identical run-to-run.
    Categories absent from the mapping keep everything.
    """

    categories: tuple[str, ...] = tuple(sorted(CATEGORIES))
    buffer_size: int = DEFAULT_BUFFER_SIZE
    #: Per-category keep fraction; normalised to a sorted tuple of
    #: ``(category, rate)`` pairs so the config stays hashable/picklable.
    sample_rate: typing.Any = ()

    def __post_init__(self) -> None:
        if self.buffer_size <= 0:
            raise ValueError(
                f"buffer_size must be positive, got {self.buffer_size}")
        unknown = set(self.categories) - CATEGORIES
        if unknown:
            raise ValueError(
                f"unknown telemetry categories {sorted(unknown)}; "
                f"choose from {sorted(CATEGORIES)}")
        pairs = (self.sample_rate.items()
                 if isinstance(self.sample_rate, dict)
                 else self.sample_rate)
        normalised = tuple(sorted((str(cat), float(rate))
                                  for cat, rate in pairs))
        for cat, rate in normalised:
            if cat not in CATEGORIES:
                raise ValueError(
                    f"unknown telemetry category {cat!r} in sample_rate; "
                    f"choose from {sorted(CATEGORIES)}")
            if not 0.0 < rate <= 1.0:
                raise ValueError(
                    f"sample_rate for {cat!r} must be in (0, 1], "
                    f"got {rate}")
        object.__setattr__(self, "sample_rate", normalised)


class Tracer:
    """Ring-buffered trace sink with per-category enable flags."""

    __slots__ = ("categories", "capacity", "dropped", "emitted", "sampled",
                 "_buffer", "_head", "_stride_state")

    def __init__(self, categories: typing.Iterable[str] | None = None,
                 buffer_size: int = DEFAULT_BUFFER_SIZE,
                 sample_rate: typing.Iterable[tuple[str, float]] = (),
                 ) -> None:
        if buffer_size <= 0:
            raise ValueError(
                f"buffer_size must be positive, got {buffer_size}")
        chosen = CATEGORIES if categories is None else frozenset(categories)
        unknown = chosen - CATEGORIES
        if unknown:
            raise ValueError(
                f"unknown telemetry categories {sorted(unknown)}; "
                f"choose from {sorted(CATEGORIES)}")
        #: Enabled categories; emits outside this set are dropped early.
        self.categories = chosen
        self.capacity = buffer_size
        #: Records overwritten by ring wrap-around (oldest-first loss).
        self.dropped = 0
        #: Records accepted (retained + dropped).
        self.emitted = 0
        #: Records skipped by per-category stride sampling.
        self.sampled = 0
        self._buffer: list[TraceRecord] = []
        self._head = 0  # next write position once the ring is full
        #: Per-category stride state, ``category -> [phase, stride]``:
        #: keep every Nth record.  Deterministic — a modulo counter, no
        #: randomness (determinism rule 1 above).  One dict so the gate
        #: pays a single hash lookup per sampled-out record.
        self._stride_state: dict[str, list[int]] = {}
        for category, rate in sample_rate:
            stride = max(1, round(1.0 / rate))
            if stride > 1:
                self._stride_state[category] = [0, stride]

    @classmethod
    def from_config(cls, config: TelemetryConfig) -> "Tracer":
        """A tracer per ``config``."""
        return cls(categories=config.categories,
                   buffer_size=config.buffer_size,
                   sample_rate=config.sample_rate)

    def __len__(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:
        return (f"<Tracer n={len(self._buffer)}/{self.capacity} "
                f"dropped={self.dropped} "
                f"categories={sorted(self.categories)}>")

    def enabled_for(self, category: str) -> bool:
        return category in self.categories

    # ------------------------------------------------------------------
    # Emission (hot when tracing is on; callers guard the None case)
    # ------------------------------------------------------------------
    def _push(self, record: TraceRecord) -> None:
        self.emitted += 1
        buffer = self._buffer
        if len(buffer) < self.capacity:
            buffer.append(record)
            return
        buffer[self._head] = record
        self._head = (self._head + 1) % self.capacity
        self.dropped += 1

    def _keep(self, category: str) -> bool:
        """Stride sampling: keep the 1st of every ``stride`` records.

        Checked *before* the record object is built, so a sampled-out
        emit costs one dict probe and an integer bump — that is where
        the overhead reduction comes from.
        """
        state = self._stride_state.get(category)
        if state is None:
            return True
        phase = state[0]
        state[0] = (phase + 1) % state[1]
        if phase:
            self.sampled += 1
            return False
        return True

    def gate(self, category: str) -> bool:
        """Category filter + stride gate in one call, for hot probes.

        Probes whose emit sites build ``args`` dicts call this *first*
        and only construct the record payload (and call the ``emit_*``
        fast paths) when it returns True — a sampled-out emit then costs
        one call and two dict probes, nothing more.  Each call advances
        the category's stride phase, exactly like an emit would.
        """
        if category not in self.categories:
            return False
        # _keep() inlined: this is the hottest call in a sampled run.
        state = self._stride_state.get(category)
        if state is None:
            return True
        phase = state[0]
        state[0] = (phase + 1) % state[1]
        if phase:
            self.sampled += 1
            return False
        return True

    def gater(self, category: str) -> typing.Callable[[], bool]:
        """A zero-argument :meth:`gate` bound to one category.

        Probes that gate the same category on every call resolve the
        category membership and stride state once, here, and keep the
        returned closure — the per-record cost drops to a single call
        with no dict lookups.  Stride accounting is shared with
        :meth:`gate` (both advance the same phase counter).
        """
        if category not in self.categories:
            return lambda: False
        state = self._stride_state.get(category)
        if state is None:
            return lambda: True

        def gate() -> bool:
            phase = state[0]
            state[0] = (phase + 1) % state[1]
            if phase:
                self.sampled += 1
                return False
            return True

        return gate

    # Fast paths for pre-gated callers: no filter, no stride — the
    # caller already consumed :meth:`gate` for this record.
    def emit_instant(self, ts: float, category: str, name: str,
                     track: str, txn_id: int = -1,
                     args: dict[str, typing.Any] | None = None) -> None:
        self._push(InstantRecord(ts, category, name, track, txn_id, args))

    def emit_span(self, ts: float, dur: float, category: str, name: str,
                  track: str, txn_id: int = -1,
                  args: dict[str, typing.Any] | None = None) -> None:
        self._push(SpanRecord(ts, dur, category, name, track, txn_id,
                              args))

    def emit_counter(self, ts: float, category: str, name: str,
                     track: str, value: float) -> None:
        self._push(CounterRecord(ts, category, name, track, value))

    def instant(self, ts: float, category: str, name: str, track: str,
                txn_id: int = -1,
                args: dict[str, typing.Any] | None = None) -> None:
        if category in self.categories and self._keep(category):
            self._push(InstantRecord(ts, category, name, track, txn_id,
                                     args))

    def span(self, ts: float, dur: float, category: str, name: str,
             track: str, txn_id: int = -1,
             args: dict[str, typing.Any] | None = None) -> None:
        if category in self.categories and self._keep(category):
            self._push(SpanRecord(ts, dur, category, name, track, txn_id,
                                  args))

    def counter(self, ts: float, category: str, name: str, track: str,
                value: float) -> None:
        if category in self.categories and self._keep(category):
            self._push(CounterRecord(ts, category, name, track, value))

    # ------------------------------------------------------------------
    # Reading (exporters and tests)
    # ------------------------------------------------------------------
    def records(self) -> list[TraceRecord]:
        """All retained records, oldest first (unwraps the ring)."""
        buffer = self._buffer
        if len(buffer) < self.capacity or self._head == 0:
            return list(buffer)
        return buffer[self._head:] + buffer[:self._head]

    def instants(self) -> list[InstantRecord]:
        return [r for r in self.records() if isinstance(r, InstantRecord)]

    def spans(self) -> list[SpanRecord]:
        return [r for r in self.records() if isinstance(r, SpanRecord)]

    def counters(self) -> list[CounterRecord]:
        return [r for r in self.records() if isinstance(r, CounterRecord)]
