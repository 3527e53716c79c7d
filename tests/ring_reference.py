"""Reference ring diff: two ``owner()`` look-ups per key and nothing else.

``repro.shard.ring.HashRing.moved_keys`` diffs two owner tables, and
``ShardedPortal`` diffs its live table against a successor's without
asking the old ring anything; this scan asks both rings about every key,
every time, so the differential test in ``test_shard_ring.py`` can hold
the table path to it — result and iteration order.
"""


def moved_keys_reference(ring, successor, keys):
    """``key -> (old_owner, new_owner)`` in ``keys`` order."""
    moved = {}
    for key in keys:
        old = ring.owner(key)
        new = successor.owner(key)
        if old != new:
            moved[key] = (old, new)
    return moved
