"""Split a trace's update stream by shard ownership.

In a sharded deployment each portal only pays for the updates to the
keys it owns — that is the whole point of partitioning (replication
makes every portal absorb all 4,608 stock streams; sharding divides
them).  ``split_update_streams`` performs that division **at trace
level**, against the run's *initial* placement: the driver feeds each
per-shard stream from its own source process, and any key that later
migrates is re-routed live by :meth:`repro.shard.ShardedPortal.
route_update` (the owner is looked up again at delivery time, so a
generation-time split stays correct across rebalances — the split only
decides which source process carries the record, not which shard
finally applies it).

Queries are *not* split here: their read sets are planned per-query by
the :class:`~repro.shard.ShardPlanner` since a multi-stock query may
span shards.
"""

from __future__ import annotations

import typing

from repro.workload.traces import RecordColumns, Row, Trace, UpdateRecord


def split_update_streams(trace: Trace,
                         owner_of: typing.Callable[[str], int],
                         n_shards: int) -> list[typing.Iterator[Row]]:
    """Partition ``trace.updates`` by ``owner_of(item)`` — the portal's
    :meth:`~repro.shard.ShardedPortal.owner_of` at the start of the run,
    or a bare ``ring.owner`` (asked once per distinct item either way).

    Returns one time-ordered, single-use stream of update rows
    ``(arrival_ms, item, exec_ms, value)`` per shard (``trace.updates`` is
    already sorted by arrival, and a stable partition preserves that).
    Every row lands in exactly one stream, so the union is the original
    update load — the conservation the sharded determinism test asserts.
    """
    updates = RecordColumns.of(UpdateRecord, trace.updates)
    return updates.partition("item", owner_of, n_shards)
