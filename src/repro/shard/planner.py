"""The shard-aware query planner: owner routing and scatter-gather merge.

Single-stock queries go straight to the shard owning the stock; a query
whose read set spans shards is **fanned out**: one sub-query per touched
shard, each carrying

* the shard's slice of the read set,
* a proportional slice of the service demand (a 3-item read costs the
  shard holding 2 of them two thirds of the work),
* a *scaled copy* of the parent contract
  (:meth:`~repro.qc.contracts.QualityContract.scaled`) — same deadlines
  and shape, dollar amounts scaled by the slice.  Priority schedulers
  (VRD's deadline key, QUTS's profit mass) therefore treat the sub-query
  like its parent instead of starving it behind every deadline-carrying
  query (a free-QC sub-query's VRD key would sort *last*),
* ``shadow_priced=True`` — the serving shard credits zero profit at
  commit, because the parent contract is priced exactly once, here, in
  the planner's fan-out ledger,
* the parent's ``lifetime_deadline`` (deadline propagation: the fan-out
  must finish inside the parent's lifetime, not restart the clock).

The merge resolves when the *last* sub-query reaches a terminal state
(observed via ``Transaction.on_terminal``, which fires on every exit
path — commit, drop, crash loss, end-of-run finalisation):

* ≥ 1 sub committed → the parent commits at the resolution time with
  staleness aggregated over the committed slices; if any slice failed
  the commit is **degraded** (qod = 0) — the partial-result semantics of
  ``repro.serve``'s brownout answers;
* every sub failed → the parent takes the dominant failure (crash loss
  > lifetime drop > unfinished) so cluster accounting stays faithful.

Every parent and sub-query is also recorded with the run's
:class:`~repro.sim.invariants.InvariantMonitor`, so the conservation
laws cover the fan-out layer: each sub terminates exactly once, each
parent terminates exactly once, and the profit credited for a parent
matches the fan-out ledger's gained total.
"""

from __future__ import annotations

import typing

from repro.db.transactions import Query, TxnStatus
from repro.metrics.profit import ProfitLedger

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.environment import Environment
    from repro.sim.invariants import InvariantMonitor
    from repro.telemetry.hooks import ShardProbe


class FanoutState:
    """Bookkeeping for one in-flight scatter-gather parent."""

    __slots__ = ("parent", "subs", "submitted", "expected", "terminal")

    def __init__(self, parent: Query, submitted: float,
                 expected: int) -> None:
        self.parent = parent
        self.submitted = submitted
        self.expected = expected
        self.subs: list[Query] = []
        self.terminal = 0


class ShardPlanner:
    """Plans read sets over the ring and resolves scatter-gather merges.

    The planner owns the **fan-out ledger**: the only place a
    multi-shard query's contract is priced and credited.  Single-shard
    queries bypass it entirely (their contracts are priced by the
    owning shard's portal, exactly like an unsharded run).
    """

    def __init__(self, env: "Environment",
                 monitor: "InvariantMonitor | None" = None,
                 probe: "ShardProbe | None" = None) -> None:
        self.env = env
        self.monitor = monitor
        self.probe = probe
        #: Prices and credits every fan-out parent contract.
        self.ledger = ProfitLedger()
        #: parent txn_id -> in-flight state; removed at resolution.
        self.open_fanouts: dict[int, FanoutState] = {}
        self.fanouts_resolved = 0

    # ------------------------------------------------------------------
    def split(self, query: Query,
              owner_of: typing.Callable[[str], int]) -> dict[int, list[str]]:
        """Group the read set by owning shard (insertion-ordered)."""
        owners: dict[int, list[str]] = {}
        for item in query.items:
            owners.setdefault(owner_of(item), []).append(item)
        return owners

    def fan_out(self, query: Query,
                owners: dict[int, list[str]]) -> list[tuple[int, Query]]:
        """Build the sub-queries for a multi-shard parent.

        Returns ``[(shard, sub_query), ...]`` in ascending shard order;
        the caller adopts each sub into its shard portal.  The parent is
        priced into the fan-out ledger here, and both the parent and
        every sub are opened with the invariant monitor.
        """
        now = self.env.now
        self.ledger.on_query_submitted(query, now)
        if self.monitor is not None:
            self.monitor.record("query_submitted", txn_id=query.txn_id)
        state = FanoutState(query, now, expected=len(owners))
        self.open_fanouts[query.txn_id] = state
        n_items = len(query.items)
        planned: list[tuple[int, Query]] = []
        for shard in sorted(owners):
            items = owners[shard]
            share = len(items) / n_items
            sub = Query(now, query.exec_time * share, items,
                        query.qc.scaled(share),
                        lifetime_deadline=query.lifetime_deadline)
            sub.shadow_priced = True
            sub.on_terminal = self._make_terminal_hook(state)
            if self.monitor is not None:
                self.monitor.record("query_submitted", txn_id=sub.txn_id)
            state.subs.append(sub)
            planned.append((shard, sub))
        if self.probe is not None:
            self.probe.fanout(now, query, [s for s, _ in planned])
        return planned

    def _make_terminal_hook(
            self, state: FanoutState) -> typing.Callable[[typing.Any], None]:
        def on_terminal(_txn: typing.Any) -> None:
            state.terminal += 1
            if state.terminal == state.expected:
                self._resolve(state)
        return on_terminal

    # ------------------------------------------------------------------
    def _resolve(self, state: FanoutState) -> None:
        """The last sub-query died or committed: settle the parent."""
        now = self.env.now
        parent = state.parent
        self.open_fanouts.pop(parent.txn_id, None)
        self.fanouts_resolved += 1
        committed = [sub for sub in state.subs
                     if sub.status is TxnStatus.COMMITTED]
        failed = len(state.subs) - len(committed)
        parent.finish_time = now
        if committed:
            # Partial result: answer with what arrived, forfeit the
            # freshness half — repro.serve's degraded-commit rule.
            parent.degraded = failed > 0
            # Staleness aggregates over the slices that answered (max —
            # the same aggregation Database applies within one server).
            parent.commit(now, max(
                typing.cast(float, sub.staleness) for sub in committed))
            self.ledger.on_query_committed(parent, now)
            if self.monitor is not None:
                self.monitor.record("query_committed",
                                    txn_id=parent.txn_id,
                                    profit=parent.total_profit)
            if self.probe is not None:
                self.probe.merge(now, parent, state.submitted,
                                 len(committed), failed, parent.degraded)
            return
        # Nothing answered: the parent inherits the dominant failure.
        statuses = {sub.status for sub in state.subs}
        if TxnStatus.LOST_CRASH in statuses:
            parent.status = TxnStatus.LOST_CRASH
            self.ledger.on_query_lost_to_crash(parent, now)
            kind = "query_lost"
        elif statuses == {TxnStatus.UNFINISHED}:
            parent.status = TxnStatus.UNFINISHED
            self.ledger.on_query_unfinished(parent)
            kind = "query_unfinished"
        else:
            parent.status = TxnStatus.DROPPED_LIFETIME
            self.ledger.on_query_dropped(parent, now)
            kind = "query_dropped"
        if self.monitor is not None:
            self.monitor.record(kind, txn_id=parent.txn_id)
        if self.probe is not None:
            self.probe.merge(now, parent, state.submitted, 0, failed,
                             True)
