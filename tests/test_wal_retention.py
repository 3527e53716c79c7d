"""The write-ahead log's retention contract: one checkpoint + the
records after it.

* a differential property holding the truncating log to the
  keep-everything oracle in ``tests/wal_reference.py`` step by step;
* ``corrupt_tail`` can only damage records a recovery will read;
* a deterministic (``tracemalloc``, not RSS) guard that the durable
  trail's memory is bounded by the checkpoint interval, not the run.
"""

import dataclasses
import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ReplicatedPortal
from repro.db.database import Database
from repro.db.items import DataItem
from repro.db.transactions import Update
from repro.db.wal import DurabilityConfig, WriteAheadLog
from repro.scheduling import make_scheduler
from repro.sim import Environment
from repro.sim.invariants import InvariantViolation
from repro.sim.rng import StreamRegistry

from .wal_reference import ReferenceWriteAheadLog

def applied_update(item, value, seq, exec_ms=5.0):
    update = Update(0.0, exec_ms, item, value=value)
    update.seq = seq
    return update


def assert_same_records(got, want):
    """Field-for-field equal except ``checksum`` (the two logs hash
    different encodings), whose *verdict* must agree."""
    assert len(got) == len(want)
    for real, oracle in zip(got, want):
        assert real[:6] == dataclasses.astuple(oracle)[:6]
        assert real.verify() == oracle.verify()


# ---------------------------------------------------------------------------
# Differential: truncating log vs keep-everything oracle
# ---------------------------------------------------------------------------
KEYS = st.sampled_from(["a", "b", "stock-é", "株"])
STEP = st.one_of(
    st.tuples(st.just("append"), KEYS,
              st.floats(allow_nan=False, allow_infinity=False),
              st.floats(min_value=0.5, max_value=50.0)),
    st.tuples(st.sampled_from(["flush", "checkpoint", "crash", "recover",
                               "recover_verified"])),
    st.tuples(st.just("corrupt"), st.integers(min_value=1, max_value=12)))


class TestDifferentialAgainstReference:
    @given(flush_every=st.integers(min_value=1, max_value=8),
           program=st.lists(STEP, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_same_observables_after_every_step(self, flush_every, program):
        database = Database()
        real = WriteAheadLog(flush_every)
        oracle = ReferenceWriteAheadLog(flush_every)
        now = 0.0
        for op, *args in program:
            now += 1.5
            if op == "append":
                item, value, exec_ms = args
                update = Update(now, exec_ms, item, value=value)
                database.register_update(update, now)
                database.apply_update(update, now)
                assert_same_records([real.append_applied(update, now)],
                                    [oracle.append_applied(update, now)])
            elif op == "flush":
                real.flush()
                oracle.flush()
            elif op == "checkpoint":
                assert (real.take_checkpoint(database, {"blocked": 1}, now)
                        == oracle.take_checkpoint(database, {"blocked": 1},
                                                  now))
            elif op == "crash":
                assert_same_records(real.crash(), oracle.crash())
            elif op == "corrupt":
                # The oracle would walk behind the fence; clamp it to
                # the records a recovery can read.
                _, tail, refused = oracle.recover_verified()
                reachable = min(args[0], len(tail) + len(refused))
                assert real.corrupt_tail(args[0]) == reachable
                if reachable:
                    assert oracle.corrupt_tail(reachable) == reachable
            elif op == "recover":
                try:
                    want_checkpoint, want_tail = oracle.recover()
                except InvariantViolation:
                    with pytest.raises(InvariantViolation,
                                       match="corrupted WAL"):
                        real.recover()
                else:
                    checkpoint, tail = real.recover()
                    assert checkpoint == want_checkpoint
                    assert_same_records(tail, want_tail)
            else:
                checkpoint, tail, refused = real.recover_verified()
                want = oracle.recover_verified()
                assert checkpoint == want[0]
                assert_same_records(tail, want[1])
                assert_same_records(refused, want[2])
            assert ((real.durable_lsn, real.last_lsn, real.unflushed,
                     real.records_lost, real.flushes)
                    == (oracle.durable_lsn, oracle.last_lsn,
                        oracle.unflushed, oracle.records_lost,
                        oracle.flushes))
            # The retention contract itself.
            assert len(real.checkpoints) <= 1
            fence = real.checkpoints[0].last_lsn if real.checkpoints else 0
            assert all(r.lsn > fence for r in real.durable_records)


# ---------------------------------------------------------------------------
# corrupt_tail reaches only replayable records
# ---------------------------------------------------------------------------
class TestCorruptionIsAlwaysObservable:
    def test_corrupt_tail_is_clamped_to_the_post_fence_tail(self):
        wal = WriteAheadLog(flush_every=100)
        for i in range(10):
            wal.append_applied(applied_update("a", float(i), i + 1), 1.0)
        wal.take_checkpoint(Database(["a"]), {}, now=2.0)
        for i in range(2):
            wal.append_applied(applied_update("a", 9.5, 11 + i), 3.0)
        wal.flush()
        assert wal.corrupt_tail(5) == 2
        checkpoint, tail, refused = wal.recover_verified()
        assert checkpoint.last_lsn == 10
        assert tail == []
        assert [r.lsn for r in refused] == [11, 12]

    def test_corrupting_a_freshly_truncated_log_is_a_no_op(self):
        wal = WriteAheadLog(flush_every=1)
        wal.append_applied(applied_update("a", 1.0, 1), 1.0)
        wal.take_checkpoint(Database(["a"]), {}, now=2.0)
        assert wal.corrupt_tail(3) == 0
        assert wal.recover() == (wal.checkpoints[0], [])
        with pytest.raises(ValueError, match="no durable records"):
            wal.corrupt_tail_record()

    def _portal(self):
        env = Environment()
        portal = ReplicatedPortal(
            env, 1, lambda: make_scheduler("FIFO"), StreamRegistry(3),
            durability=DurabilityConfig(checkpoint_interval_ms=60_000.0,
                                        flush_every=1))
        return env, portal, portal.replicas[0].server

    def test_every_corrupted_record_is_detected_across_a_checkpoint(self):
        env, portal, server = self._portal()
        for i in range(10):
            server.submit_update(Update(0.0, 5.0, f"k{i}", value=float(i)))
        env.run(until=100.0)
        server.take_checkpoint()
        for i in range(2):
            server.submit_update(Update(100.0, 5.0, f"k{i}", value=7.0))
        env.run(until=200.0)
        portal.corrupt_wal(0, records=5)
        portal.crash_replica(0)
        portal.recover_replica(0)
        counters = portal.fault_counters.as_dict()
        assert counters["wal_records_corrupted"] == 2
        assert counters["wal_corruption_detected"] == 2
        assert counters.get("wal_corruptions_noop", 0) == 0

    def test_corrupt_wal_right_after_a_checkpoint_counts_as_noop(self):
        env, portal, server = self._portal()
        server.submit_update(Update(0.0, 5.0, "k", value=1.0))
        env.run(until=100.0)
        server.take_checkpoint()
        portal.corrupt_wal(0, records=3)
        counters = portal.fault_counters.as_dict()
        assert counters["wal_corruptions_noop"] == 1
        assert counters.get("wal_records_corrupted", 0) == 0


# ---------------------------------------------------------------------------
# Bounded memory
# ---------------------------------------------------------------------------
class TestBoundedTrail:
    CHECKPOINT_EVERY = 2_000

    def test_retained_memory_does_not_grow_with_the_run(self):
        keys = [f"k{i}" for i in range(64)]
        database = Database(keys)
        wal = WriteAheadLog(flush_every=8)
        retained = {}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(40_000):
                now = float(i)
                wal.append_applied(
                    applied_update(keys[i % 64], now, i // 64 + 1), now)
                if (i + 1) % self.CHECKPOINT_EVERY == 0:
                    assert (len(wal.durable_records)
                            <= self.CHECKPOINT_EVERY)
                    if i + 1 in (4_000, 40_000):
                        # Just before the fence moves: the tail is at
                        # its longest.
                        gc.collect()
                        retained[i + 1] = (
                            tracemalloc.get_traced_memory()[0] - base)
                    wal.take_checkpoint(database, {}, now)
        finally:
            tracemalloc.stop()
        assert len(wal.checkpoints) == 1
        assert wal.durable_lsn == wal.last_lsn == 40_000
        assert retained[40_000] <= 1.25 * retained[4_000]


# ---------------------------------------------------------------------------
# Snapshot format
# ---------------------------------------------------------------------------
def test_snapshot_tuples_hold_every_item_slot_in_order():
    database = Database(["a", "b"])
    update = Update(3.0, 5.0, "a", value=2.5)
    database.register_update(update, 3.0)
    database.apply_update(update, 4.0)
    want = {item.key: tuple(getattr(item, field)
                            for field in DataItem.__slots__)
            for item in database.items()}
    assert database.snapshot() == want
    assert database.export_items(["b", "nope", "a"]) == {
        "b": want["b"], "a": want["a"]}
    restored = Database(["stale"])
    restored.restore(want)
    assert restored.snapshot() == want
