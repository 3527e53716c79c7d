"""Reference write-ahead log: keeps everything, scans for the tail.

``repro.db.wal.WriteAheadLog`` truncates at the checkpoint fence, keeps
one checkpoint and checksums packed bytes.  This oracle is the log as it
was before that: every durable record and every checkpoint is retained
forever, the replayable tail is found by scanning the whole log for
``lsn > fence``, a record is a frozen dataclass and its CRC is over an
f-string of ``repr()``s.  The differential test in
``test_wal_retention.py`` drives both with one program and requires the
same observable durability behaviour.  It shares only ``Checkpoint`` and
``InvariantViolation`` with the production module.
"""

import dataclasses
import zlib

from repro.db.wal import Checkpoint
from repro.sim.invariants import InvariantViolation


def _checksum(lsn, applied_at, item, seq, value, exec_ms):
    payload = f"{lsn}|{applied_at!r}|{item}|{seq}|{value!r}|{exec_ms!r}"
    return zlib.crc32(payload.encode("utf-8"))


@dataclasses.dataclass(frozen=True, slots=True)
class ReferenceWalRecord:
    lsn: int
    applied_at: float
    item: str
    seq: int
    value: float
    exec_ms: float
    checksum: int

    def verify(self):
        return self.checksum == _checksum(
            self.lsn, self.applied_at, self.item, self.seq, self.value,
            self.exec_ms)


class ReferenceWriteAheadLog:
    def __init__(self, flush_every=1):
        self.flush_every = flush_every
        self._durable = []
        self._buffer = []
        self._checkpoints = []
        self._next_lsn = 1
        self.flushes = 0
        self.records_lost = 0

    def append_applied(self, update, now):
        lsn = self._next_lsn
        record = ReferenceWalRecord(
            lsn, now, update.item, update.seq, update.value,
            update.exec_time,
            _checksum(lsn, now, update.item, update.seq, update.value,
                      update.exec_time))
        self._next_lsn += 1
        self._buffer.append(record)
        if len(self._buffer) >= self.flush_every:
            self.flush()
        return record

    def flush(self):
        if self._buffer:
            self._durable.extend(self._buffer)
            self._buffer.clear()
            self.flushes += 1

    def take_checkpoint(self, database, queue_digest, now):
        self.flush()
        checkpoint = Checkpoint(taken_at=now, last_lsn=self.durable_lsn,
                                items=database.snapshot(),
                                queue_digest=dict(queue_digest))
        self._checkpoints.append(checkpoint)
        return checkpoint

    def crash(self):
        lost, self._buffer = self._buffer, []
        self.records_lost += len(lost)
        return lost

    def _tail(self):
        checkpoint = self._checkpoints[-1] if self._checkpoints else None
        fence = checkpoint.last_lsn if checkpoint is not None else 0
        return checkpoint, [r for r in self._durable if r.lsn > fence]

    def recover(self):
        checkpoint, tail = self._tail()
        for record in tail:
            if not record.verify():
                raise InvariantViolation(
                    f"corrupted WAL record at lsn={record.lsn}")
        return checkpoint, tail

    def recover_verified(self):
        checkpoint, tail = self._tail()
        for position, record in enumerate(tail):
            if not record.verify():
                return checkpoint, tail[:position], tail[position:]
        return checkpoint, tail, []

    @property
    def durable_lsn(self):
        return self._durable[-1].lsn if self._durable else 0

    @property
    def last_lsn(self):
        return self._next_lsn - 1

    @property
    def unflushed(self):
        return len(self._buffer)

    def corrupt_tail(self, count=1, delta=1.0):
        """Walks back through the *whole* retained log — including
        records behind the fence that no recovery reads (the defect the
        production log's truncation removes)."""
        damaged = min(count, len(self._durable))
        for offset in range(1, damaged + 1):
            record = self._durable[-offset]
            self._durable[-offset] = dataclasses.replace(
                record, value=record.value + delta)
        return damaged
