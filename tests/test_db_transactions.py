"""Unit tests for the transaction model."""

import ast
import math
import pathlib
import types

import pytest

from repro.db.transactions import (LIVE_STATUSES, Query, Transaction,
                                   TxnStatus, Update)
from repro.qc.contracts import QualityContract
from repro.scheduling.priorities import FCFSPriority
from repro.scheduling.queues import TransactionQueue
from repro.shard.planner import ShardPlanner
from repro.sim import Environment


def free_qc(lifetime=100.0):
    return QualityContract.free(lifetime=lifetime)


class TestTransactionBasics:
    def test_ids_are_unique_and_increasing(self):
        a = Update(0.0, 1.0, "X")
        b = Update(0.0, 1.0, "X")
        assert b.txn_id > a.txn_id

    def test_exec_time_must_be_positive(self):
        with pytest.raises(ValueError):
            Update(0.0, 0.0, "X")
        with pytest.raises(ValueError):
            Query(0.0, -1.0, ("A",), free_qc())

    @pytest.mark.parametrize("exec_time", [math.nan, math.inf, -math.inf,
                                           0.0, -0.0, -1.0])
    def test_non_finite_or_non_positive_exec_time_rejected(self, exec_time):
        """Regression: ``exec_time <= 0`` let NaN through, and the run
        died much later in the kernel as "non-finite time"."""
        with pytest.raises(ValueError, match="exec_time"):
            Update(0.0, exec_time, "X")
        with pytest.raises(ValueError, match="exec_time"):
            Query(0.0, exec_time, ("A",), free_qc())

    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_time_rejected(self, arrival):
        with pytest.raises(ValueError, match="arrival_time"):
            Update(arrival, 1.0, "X")
        with pytest.raises(ValueError, match="arrival_time"):
            Query(arrival, 1.0, ("A",), free_qc())

    def test_initial_state(self):
        update = Update(5.0, 2.0, "X")
        assert update.status is TxnStatus.CREATED
        assert update.remaining == 2.0
        assert update.restarts == 0
        assert update.status.live

    def test_response_time_requires_finish(self):
        update = Update(5.0, 2.0, "X")
        with pytest.raises(ValueError):
            update.response_time()
        update.finish_time = 9.0
        assert update.response_time() == 4.0

    def test_reset_for_restart(self):
        update = Update(0.0, 2.0, "X")
        update.remaining = 0.5
        update.reset_for_restart()
        assert update.remaining == 2.0
        assert update.restarts == 1

    def test_live_statuses(self):
        update = Update(0.0, 1.0, "X")
        for status in LIVE_STATUSES:
            update.status = status
            assert update.status.live
        update.end(TxnStatus.COMMITTED, 3.0)
        assert not update.status.live
        assert update.finish_time == 3.0

    def test_touched_items_abstract(self):
        txn = Transaction.__new__(Transaction)
        Transaction.__init__(txn, 0.0, 1.0)
        with pytest.raises(NotImplementedError):
            txn.touched_items()


class TestQuery:
    def test_requires_items(self):
        with pytest.raises(ValueError):
            Query(0.0, 5.0, (), free_qc())

    def test_class_predicates(self):
        query = Query(0.0, 5.0, ("A",), free_qc())
        assert query.is_query and not query.is_update

    def test_lifetime_from_contract(self):
        query = Query(10.0, 5.0, ("A",), free_qc(lifetime=50.0))
        assert query.lifetime_deadline == 60.0
        assert not query.past_lifetime(60.0)
        assert query.past_lifetime(60.1)

    def test_explicit_lifetime_overrides(self):
        query = Query(10.0, 5.0, ("A",), free_qc(lifetime=50.0),
                      lifetime_deadline=99.0)
        assert query.lifetime_deadline == 99.0

    def test_items_are_tuple(self):
        query = Query(0.0, 5.0, ["A", "B"], free_qc())
        assert query.items == ("A", "B")
        assert query.touched_items() == ("A", "B")

    def test_brownout_scales_service_time_once(self):
        query = Query(0.0, 8.0, ("A",), free_qc())
        query.apply_brownout(0.25)
        query.apply_brownout(0.25)  # idempotent
        assert query.degraded
        assert query.exec_time == query.remaining == 2.0

    def test_brownout_rejects_underflow_to_zero(self):
        """A legal factor can still scale a tiny service time to 0.0,
        which the constructor would have refused."""
        query = Query(0.0, 5e-324, ("A",), free_qc())
        with pytest.raises(ValueError, match="brownout service time"):
            query.apply_brownout(0.25)
        assert not query.degraded and query.exec_time == 5e-324

    def test_total_profit(self):
        query = Query(0.0, 5.0, ("A",), free_qc())
        query.qos_profit = 3.0
        query.qod_profit = 4.0
        assert query.total_profit == 7.0


class TestUpdate:
    def test_class_predicates(self):
        update = Update(0.0, 1.0, "X")
        assert update.is_update and not update.is_query

    def test_touched_items_single(self):
        update = Update(0.0, 1.0, "X", value=9.0)
        assert update.touched_items() == ("X",)
        assert update.value == 9.0

    def test_seq_unassigned_until_registered(self):
        assert Update(0.0, 1.0, "X").seq == -1


LIVE = sorted(LIVE_STATUSES, key=lambda status: status.value)
TERMINAL = [status for status in TxnStatus if status not in LIVE_STATUSES]


class _CountingQueue(TransactionQueue):
    def __init__(self):
        super().__init__(FCFSPriority())
        self.deaths = []

    def _note_death(self, txn):
        self.deaths.append(txn)
        super()._note_death(txn)


class TestLifecycleTable:
    """The O(1) predicates must stay in step with their sources of truth
    (``LIVE_STATUSES``, the class hierarchy) for every member — the loops
    run over the enum so a future status cannot be forgotten."""

    def test_live_flag_matches_live_statuses_for_every_member(self):
        assert LIVE and TERMINAL
        for member in TxnStatus:
            assert member.live is (member in LIVE_STATUSES), member

    def test_alive_and_done_follow_the_flag(self):
        # ``done`` is gone; ``alive`` is a read-only view of the flag.
        assert not hasattr(Transaction, "done")
        assert Transaction.alive.fset is None
        for member in TxnStatus:
            update = Update(0.0, 1.0, "X")
            update.status = member
            assert update.alive is member.live

    def test_class_predicates_are_exact(self):
        base = Transaction(0.0, 1.0)
        query = Query(0.0, 5.0, ("A", "B"), free_qc())
        update = Update(0.0, 1.0, "X")
        planner = ShardPlanner(Environment())
        subs = [sub for _, sub in planner.fan_out(
            query, {0: ["A"], 1: ["B"]})]
        assert len(subs) == 2
        for txn, is_query, is_update in (
                [(base, False, False), (query, True, False),
                 (update, False, True)]
                + [(sub, True, False) for sub in subs]):
            assert txn.is_query is is_query, txn
            assert txn.is_update is is_update, txn
            assert txn.is_query == isinstance(txn, Query)
            assert txn.is_update == isinstance(txn, Update)

    @pytest.mark.parametrize("terminal", TERMINAL, ids=lambda s: s.value)
    @pytest.mark.parametrize("live", LIVE, ids=lambda s: s.value)
    def test_terminal_edge_fires_hooks_exactly_once(self, live, terminal):
        queue = _CountingQueue()
        update = Update(0.0, 1.0, "X")
        queue.push(update)
        fired = []
        update.on_terminal = fired.append
        update.status = live            # live -> live: a plain write
        assert fired == [] and queue.deaths == [] and len(queue) == 1
        update.end(terminal, 4.0)       # the one live -> terminal edge
        assert fired == [update] and queue.deaths == [update]
        assert len(queue) == 0 and update.on_terminal is None
        assert update.status is terminal and update.finish_time == 4.0
        for again in TERMINAL:          # terminal -> terminal: raises
            with pytest.raises(ValueError):
                update.end(again, 5.0)
        assert fired == [update] and queue.deaths == [update]
        assert update.status is terminal and update.finish_time == 4.0


class TestOneTerminalTransition:
    """``Transaction.end`` is the only way out of the live set: outside
    it, ``src/`` writes only live statuses, and never reads ``alive``
    (kept for ``bench/tracing.py``, which reads it)."""

    SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

    def _walk(self):
        for path in sorted(self.SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            yield path, tree

    def test_status_is_a_plain_slot(self):
        assert isinstance(Transaction.__dict__["status"],
                          types.MemberDescriptorType)

    def test_only_end_writes_a_terminal_status(self):
        live = {member.name for member in LIVE_STATUSES}
        offenders = []
        for path, tree in self._walk():
            exempt = {node for cls in ast.walk(tree)
                      if isinstance(cls, ast.ClassDef)
                      and cls.name == "Transaction"
                      for method in cls.body
                      if isinstance(method, ast.FunctionDef)
                      and method.name == "end"
                      for node in ast.walk(method)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Assign, ast.AnnAssign,
                                         ast.AugAssign)) or node in exempt:
                    continue
                targets = getattr(node, "targets", None) or [node.target]
                if not any(isinstance(target, ast.Attribute)
                           and target.attr == "status"
                           for target in targets):
                    continue
                value = node.value
                if not (isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "TxnStatus"
                        and value.attr in live):
                    offenders.append(f"{path.relative_to(self.SRC)}:"
                                     f"{node.lineno}")
        assert not offenders

    def test_the_scan_sees_src(self):
        assert sum(1 for _ in self._walk()) > 50

    def test_src_never_reads_alive(self):
        readers = [f"{path.relative_to(self.SRC)}:{node.lineno}"
                   for path, tree in self._walk()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr == "alive"]
        assert not readers


class TestEnd:
    def test_a_live_status_cannot_end(self):
        update = Update(0.0, 1.0, "X")
        for member in LIVE:
            with pytest.raises(ValueError):
                update.end(member, 1.0)
        assert update.status is TxnStatus.CREATED
        assert update.finish_time is None

    def test_without_now_finish_time_stays_unset(self):
        update = Update(0.0, 1.0, "X")
        update.end(TxnStatus.UNFINISHED)
        assert update.status is TxnStatus.UNFINISHED
        assert update.finish_time is None

    def test_hook_sees_the_ended_record_once(self):
        update = Update(0.0, 1.0, "X")
        seen = []

        def hook(txn):
            seen.append((txn.status, txn.finish_time, txn.on_terminal))
            with pytest.raises(ValueError):
                txn.end(TxnStatus.COMMITTED, 9.0)

        update.on_terminal = hook
        update.end(TxnStatus.DROPPED_SUPERSEDED, 2.0)
        assert seen == [(TxnStatus.DROPPED_SUPERSEDED, 2.0, None)]

    def test_commit_prices_then_ends(self):
        query = Query(1.0, 5.0, ("A",), free_qc())
        seen = []
        query.on_terminal = lambda txn: seen.append(
            (txn.status, txn.finish_time, txn.staleness))
        query.commit(6.0, 0.0)
        assert seen == [(TxnStatus.COMMITTED, 6.0, 0.0)]
        assert query.response_time() == 5.0
