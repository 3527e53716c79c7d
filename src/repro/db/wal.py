"""Durability: a write-ahead update log with crash-consistent checkpoints.

The paper's web-database is main-memory and its updates are *blind*:
losing one is silent QoD corruption, because no client ever re-reads the
value it pushed.  This module gives each replica a durable trail:

* every **applied** update is appended to a :class:`WriteAheadLog` as a
  checksummed :class:`WalRecord`;
* records become *durable* in groups (``flush_every`` appends, modelling
  group commit) and always at checkpoints;
* a :class:`Checkpoint` is a crash-consistent snapshot: the full
  :class:`~repro.db.database.Database` item state plus a digest of the
  scheduler queues at the checkpoint instant, fenced by the last durable
  LSN it covers.  Taking one **truncates the log at the fence**: it holds
  the last checkpoint plus the records after it, so size and recovery
  cost are bounded by one checkpoint interval (LSNs never restart).

On a fail-stop crash the unflushed tail of the log is lost — those
records are the incident's **RPO**, measured in the paper's own QoD unit
(#uu, unapplied/lost updates).  Recovery restores the last checkpoint,
replays the durable WAL tail (verifying each record's checksum — a
corrupted record raises
:class:`~repro.sim.invariants.InvariantViolation` instead of silently
diverging), and re-syncs the remainder from the durable external source.

Everything here is in-simulation state: the "disk" is an object that
survives :meth:`WriteAheadLog.crash` while the database object does not.
"""

from __future__ import annotations

import dataclasses
import struct
import typing
import zlib

from repro.sim.invariants import InvariantViolation

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database
    from .transactions import Update

#: A record's CRC-32 covers its packed numeric fields (``lsn, applied_at,
#: seq, value, exec_ms``), then the item key's UTF-8 bytes.
_PACK_NUMERIC = struct.Struct("<qdqdd").pack


def _checksum(lsn: int, applied_at: float, item: str, seq: int,
              value: float, exec_ms: float) -> int:
    return zlib.crc32(
        item.encode("utf-8"),
        zlib.crc32(_PACK_NUMERIC(lsn, applied_at, seq, value, exec_ms)))


class WalRecord(typing.NamedTuple):
    """One applied update, as written to the log."""

    lsn: int
    applied_at: float
    item: str
    seq: int
    value: float
    exec_ms: float
    checksum: int

    @classmethod
    def applied(cls, lsn: int, applied_at: float, item: str, seq: int,
                value: float, exec_ms: float) -> "WalRecord":
        return cls(lsn, applied_at, item, seq, value, exec_ms,
                   _checksum(lsn, applied_at, item, seq, value, exec_ms))

    def verify(self) -> bool:
        """True iff the stored checksum matches the record's fields."""
        return self.checksum == _checksum(
            self.lsn, self.applied_at, self.item, self.seq, self.value,
            self.exec_ms)


@dataclasses.dataclass(frozen=True, slots=True)
class Checkpoint:
    """A crash-consistent snapshot fencing the log at ``last_lsn``."""

    taken_at: float
    last_lsn: int
    #: Full per-item state (the Database snapshot format).
    items: dict[str, tuple]
    #: Scheduler-queue digest at the instant of the checkpoint (queued
    #: work is volatile; the digest documents what recovery must re-sync).
    queue_digest: dict[str, int]

    def __repr__(self) -> str:
        return (f"<Checkpoint t={self.taken_at:.0f} lsn={self.last_lsn} "
                f"items={len(self.items)} queues={self.queue_digest}>")


@dataclasses.dataclass(frozen=True)
class DurabilityConfig:
    """Tunables of the durability layer (per replica)."""

    #: Period of the crash-consistent checkpoints (ms).
    checkpoint_interval_ms: float = 60_000.0
    #: Group-commit factor: appends become durable every this many
    #: records (and always at checkpoints).  1 = synchronous WAL,
    #: RPO 0; larger values trade durability for write amortisation.
    flush_every: int = 8

    def __post_init__(self) -> None:
        if not self.checkpoint_interval_ms > 0:
            raise ValueError(
                f"checkpoint_interval_ms must be positive, "
                f"got {self.checkpoint_interval_ms}")
        if self.flush_every < 1:
            raise ValueError(
                f"flush_every must be >= 1, got {self.flush_every}")


class WriteAheadLog:
    """One replica's durable trail: a checkpoint + the log after it."""

    def __init__(self, flush_every: int = 1) -> None:
        if flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.flush_every = flush_every
        #: Durable records past the checkpoint fence, in LSN order.
        self._durable: list[WalRecord] = []
        #: Appended but not yet flushed (lost on crash).
        self._buffer: list[WalRecord] = []
        self._checkpoint: Checkpoint | None = None
        self._next_lsn = 1
        self._durable_lsn = 0
        self.flushes = 0
        self.records_lost = 0

    def __repr__(self) -> str:
        return (f"<WriteAheadLog durable_lsn={self._durable_lsn} "
                f"tail={len(self._durable)} "
                f"buffered={len(self._buffer)}>")

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def append_applied(self, update: "Update", now: float) -> WalRecord:
        """Log one applied update; flushes on the group-commit boundary."""
        record = WalRecord.applied(self._next_lsn, now, update.item,
                                   update.seq, update.value,
                                   update.exec_time)
        self._next_lsn += 1
        self._buffer.append(record)
        if len(self._buffer) >= self.flush_every:
            self.flush()
        return record

    def flush(self) -> None:
        """Make every buffered record durable."""
        if self._buffer:
            self._durable_lsn = self._buffer[-1].lsn
            self._durable.extend(self._buffer)
            self._buffer.clear()
            self.flushes += 1

    def take_checkpoint(self, database: "Database",
                        queue_digest: dict[str, int],
                        now: float) -> Checkpoint:
        """Flush, snapshot the database, and truncate at the fence: the
        durable records it covers and the previous checkpoint are dropped."""
        self.flush()
        checkpoint = Checkpoint(taken_at=now, last_lsn=self._durable_lsn,
                                items=database.snapshot(),
                                queue_digest=dict(queue_digest))
        self._checkpoint = checkpoint
        self._durable = []
        return checkpoint

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------
    def crash(self) -> list[WalRecord]:
        """Fail-stop: the unflushed tail is lost; returns it (the
        incident's RPO in #uu) so the caller can re-sync those updates
        from the durable external source."""
        lost, self._buffer = self._buffer, []
        self.records_lost += len(lost)
        return lost

    def recover(self) -> tuple[Checkpoint | None, list[WalRecord]]:
        """The durable state to rebuild from: last checkpoint + log tail.

        Every replayed record is checksum-verified; corruption raises
        :class:`InvariantViolation` (with the damaged record) rather
        than silently installing wrong values.
        """
        checkpoint, tail, refused = self.recover_verified()
        if refused:
            record = refused[0]
            raise InvariantViolation(
                f"corrupted WAL record at lsn={record.lsn} "
                f"(item={record.item!r}, seq={record.seq}): checksum "
                f"mismatch — refusing to replay a damaged log")
        return checkpoint, tail

    def recover_verified(self) -> tuple[
            Checkpoint | None, list[WalRecord], list[WalRecord]]:
        """Corruption-tolerant variant of :meth:`recover`.

        Returns ``(checkpoint, replayable tail, refused suffix)``: the
        CRC scan truncates at the *first* record that fails
        verification, and that record plus everything after it is
        refused wholesale — once the chain is torn, later records (even
        individually well-formed ones) cannot be trusted to describe a
        consistent history.  The caller re-syncs the refused items from
        a healthy peer or the durable external source.
        """
        tail = self._durable
        good = next((position for position, record in enumerate(tail)
                     if not record.verify()), len(tail))
        return self._checkpoint, tail[:good], tail[good:]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def durable_lsn(self) -> int:
        """LSN of the newest durable record (0 before the first flush)."""
        return self._durable_lsn

    @property
    def last_lsn(self) -> int:
        """LSN of the newest appended record, durable or not."""
        return self._next_lsn - 1

    @property
    def durable_records(self) -> tuple[WalRecord, ...]:
        """The live durable tail: the records past the checkpoint fence."""
        return tuple(self._durable)

    @property
    def checkpoints(self) -> tuple[Checkpoint, ...]:
        """The live checkpoints: the last one taken, or none."""
        return () if self._checkpoint is None else (self._checkpoint,)

    @property
    def unflushed(self) -> int:
        return len(self._buffer)

    # Test hook: deliberately damage the durable tail to prove recovery
    # detects it (checksums survive, fields do not match them).
    def corrupt_tail_record(self, delta: float = 1.0) -> None:
        """Flip the newest durable record's value without re-checksumming."""
        if not self.corrupt_tail(1, delta):
            raise ValueError("no durable records to corrupt")

    def corrupt_tail(self, count: int = 1, delta: float = 1.0) -> int:
        """Silently damage the newest ``count`` durable records (the
        ``corrupt_wal`` fault kind).  Values are perturbed without
        re-checksumming, so :meth:`recover`'s CRC scan catches them.
        Returns how many records were actually damaged — only those past
        the fence exist, so each is one recovery will read (0 when the
        tail is empty — corruption of nothing is a no-op, not an error,
        because fault schedules are sampled blindly)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        damaged = min(count, len(self._durable))
        for offset in range(1, damaged + 1):
            record = self._durable[-offset]
            self._durable[-offset] = record._replace(
                value=record.value + delta)
        return damaged
