"""Runtime invariant monitor: machine-checked conservation laws.

Chaos runs are only trustworthy if silent corruption is impossible, so
the simulation can carry a :class:`InvariantMonitor` that observes every
transaction lifecycle event and *continuously* asserts the laws the
accounting depends on:

* **conservation** — every query or update that enters the system
  terminates in exactly one ledger state (committed / dropped / shed /
  lost / unfinished); nothing is double-counted and nothing vanishes;
* **clock monotonicity** — observed event times never run backwards;
* **non-negative queues** — reported queue lengths are never negative;
* **profit conservation** — the ledger's gained totals equal the sum of
  the per-contract payouts credited at commit time.

A violated law raises :class:`InvariantViolation` immediately, carrying
the most recent events as a diagnostic trace, instead of letting the
run diverge silently.  The monitor is an *observer*: it schedules no
events, draws no randomness, and therefore never perturbs a run — a
monitored simulation is bit-identical to an unmonitored one.  A run
without a monitor passes ``monitor=None``.

The write-ahead log (:mod:`repro.db.wal`) raises the same
:class:`InvariantViolation` when a corrupted record fails its checksum
during recovery replay: a damaged durability trail is a broken
invariant, not a quiet divergence.
"""

from __future__ import annotations

import collections
import math
import typing

from .errors import SimulationError


class InvariantViolation(SimulationError):
    """A conservation law was broken; carries the offending event trace."""

    def __init__(self, message: str,
                 trace: typing.Iterable[tuple] = ()) -> None:
        self.trace = list(trace)
        if self.trace:
            lines = "\n".join(
                f"  t={now:.3f} {kind} {data!r}"
                for now, kind, data in self.trace)
            message = f"{message}\nmost recent events:\n{lines}"
        super().__init__(message)


#: Event kinds that open a transaction's ledger entry.
_OPENING = frozenset({"query_submitted", "update_submitted"})

#: Event kinds that close a query's ledger entry (exactly one must fire).
QUERY_TERMINALS = frozenset({
    "query_committed", "query_dropped", "query_rejected",
    "query_lost", "query_unfinished",
})

#: Event kinds that close an update's ledger entry (exactly one must fire).
UPDATE_TERMINALS = frozenset({
    "update_applied", "update_superseded", "update_lost",
    "update_unfinished",
})

_TERMINALS = QUERY_TERMINALS | UPDATE_TERMINALS

#: Data fields checked for non-negativity on every event.
_QUEUE_FIELDS = ("pending_queries", "pending_updates")


class InvariantMonitor:
    """Subscribes to simulation events and asserts conservation laws.

    ``now_fn`` supplies the observed clock (usually ``lambda: env.now``).
    ``history`` bounds the diagnostic ring buffer attached to violations.
    """

    def __init__(self, now_fn: typing.Callable[[], float] | None = None,
                 *, history: int = 64) -> None:
        if history <= 0:
            raise ValueError(f"history must be positive, got {history}")
        self._now_fn = now_fn or (lambda: 0.0)
        self._trace: collections.deque[tuple] = collections.deque(
            maxlen=history)
        self._last_now = -math.inf
        #: txn_id -> "open" | terminal event kind.
        self._ledger: dict[int, str] = {}
        self._open = 0
        self.events_seen = 0
        #: Sum of per-query payouts credited at commit (profit law).
        self.profit_credited = 0.0

    def __repr__(self) -> str:
        return (f"<InvariantMonitor events={self.events_seen} "
                f"open={self._open}>")

    # ------------------------------------------------------------------
    # The event sink
    # ------------------------------------------------------------------
    def record(self, kind: str, txn_id: int | None = None,
               **data: typing.Any) -> None:
        """Observe one simulation event and check every applicable law."""
        now = self._now_fn()
        self.events_seen += 1
        self._trace.append((now, kind, {"txn": txn_id, **data}))

        if now < self._last_now:
            self._fail(f"clock ran backwards: event {kind!r} observed at "
                       f"t={now} after t={self._last_now}")
        self._last_now = now

        for field in _QUEUE_FIELDS:
            length = data.get(field)
            if length is not None and length < 0:
                self._fail(f"negative queue length: {field}={length} "
                           f"at {kind!r}")

        if txn_id is not None:
            self._track(kind, txn_id)
        if kind == "query_committed":
            self.profit_credited += data.get("profit", 0.0)
        elif kind == "gap_healed":
            # Re-sync completeness: healing a lossy update window must
            # re-deliver exactly what the window withheld.  This is the
            # law the chaos harness's planted-bug meta-test breaks.
            dropped = data.get("dropped", 0)
            resynced = data.get("resynced", 0)
            if resynced != dropped:
                self._fail(
                    f"incomplete gap re-sync on replica "
                    f"{data.get('replica')}: window dropped {dropped} "
                    f"update(s) but the heal re-delivered {resynced}")
        elif kind == "shard_cutover":
            # Migration completeness: every update frozen while a key
            # range moved between shards must be replayed on the
            # destination at cutover — none lost, none duplicated.
            buffered = data.get("buffered", 0)
            replayed = data.get("replayed", 0)
            if replayed != buffered:
                self._fail(
                    f"unbalanced shard migration "
                    f"{data.get('source')} -> {data.get('dest')}: "
                    f"{buffered} update(s) buffered during the move but "
                    f"{replayed} replayed at cutover")

    def _track(self, kind: str, txn_id: int) -> None:
        state = self._ledger.get(txn_id)
        if kind in _OPENING:
            if state is not None:
                self._fail(f"transaction #{txn_id} submitted twice "
                           f"(was {state!r})")
            self._ledger[txn_id] = "open"
            self._open += 1
        elif kind in _TERMINALS:
            if state is None:
                self._fail(f"transaction #{txn_id} reached terminal "
                           f"{kind!r} without ever being submitted")
            if state != "open":
                self._fail(f"transaction #{txn_id} reached a second "
                           f"terminal state {kind!r} (already {state!r})")
            self._ledger[txn_id] = kind
            self._open -= 1

    # ------------------------------------------------------------------
    # End-of-run laws
    # ------------------------------------------------------------------
    def verify_complete(self, total_gained: float) -> None:
        """After finalize: nothing may still be open, and the ledgers'
        gained profit must equal the sum of per-contract payouts."""
        if self._open:
            stuck = [tid for tid, state in self._ledger.items()
                     if state == "open"]
            self._fail(f"{self._open} transaction(s) never reached a "
                       f"terminal ledger state: {sorted(stuck)[:10]}")
        if not math.isclose(total_gained, self.profit_credited,
                            rel_tol=1e-9, abs_tol=1e-6):
            self._fail(f"profit ledger out of balance: ledgers gained "
                       f"{total_gained!r} but per-contract payouts sum "
                       f"to {self.profit_credited!r}")

    def _fail(self, message: str) -> typing.NoReturn:
        raise InvariantViolation(message, trace=self._trace)
