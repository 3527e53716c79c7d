"""A deterministic, weighted consistent-hash ring over stock keys.

The ring partitions the keyspace across shards with the classic
virtual-node construction (Karger et al.; the placement half of the
Dynamo design in PAPERS.md): every shard owns ``weight x
vnodes_per_weight`` points on a 64-bit circle, and a key belongs to the
shard owning the first point at or after the key's own position
(wrapping).  Three properties make it the right data structure here:

* **determinism** — positions come from SHA-256 over
  ``"{seed}:..."`` strings, never from Python's salted ``hash()``, so
  the same seed gives the same ring on every run, platform, and worker
  process (the bit-identity contract extends to placement);
* **balance** — with enough virtual nodes per shard the arc lengths
  concentrate, so the 4,608 stocks spread within a small factor of the
  fair share (property-tested in ``tests/test_shard_ring.py``);
* **minimal movement** — vnode positions depend only on ``(seed, shard,
  vnode index)``.  Adding a shard, or raising a shard's weight, adds
  points without moving any existing one, so exactly the keys on the
  newly claimed arcs change owner — the property that makes online
  rebalancing affordable (only the moved arcs migrate).

Rings are immutable; rebalancing builds a successor with
:meth:`HashRing.with_weight` / :meth:`HashRing.with_shard` and diffs
ownership via :meth:`HashRing.moved_keys`.
"""

from __future__ import annotations

import bisect
import hashlib
import typing

#: Virtual nodes per unit of shard weight.  128 keeps the max/fair-share
#: ratio under ~1.6 at 4,608 keys (see the balance property test) while
#: ring construction stays sub-millisecond.
DEFAULT_VNODES_PER_WEIGHT = 128


def _position(seed: int, label: str) -> int:
    """A stable 64-bit ring position for ``label`` under ``seed``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Immutable weighted consistent-hash ring: key -> shard index."""

    def __init__(self, n_shards: int, seed: int,
                 weights: typing.Mapping[int, int] | None = None,
                 vnodes_per_weight: int = DEFAULT_VNODES_PER_WEIGHT) -> None:
        if n_shards <= 0:
            raise ValueError(f"need at least one shard, got {n_shards}")
        if vnodes_per_weight <= 0:
            raise ValueError(
                f"vnodes_per_weight must be positive, "
                f"got {vnodes_per_weight}")
        self.n_shards = n_shards
        self.seed = seed
        self.vnodes_per_weight = vnodes_per_weight
        self.weights: dict[int, int] = {
            shard: 1 for shard in range(n_shards)}
        if weights is not None:
            for shard, weight in weights.items():
                if not 0 <= shard < n_shards:
                    raise ValueError(f"unknown shard {shard}")
                if weight < 1:
                    raise ValueError(
                        f"shard {shard} weight must be >= 1, got {weight}")
                self.weights[shard] = weight
        # One (position, shard) point per vnode.  Vnode ``v`` of a shard
        # keeps its position forever — weight changes only add or remove
        # the highest-numbered vnodes, which is what bounds movement.
        points: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for vnode in range(self.weights[shard] * vnodes_per_weight):
                points.append(
                    (_position(seed, f"vnode:{shard}:{vnode}"), shard))
        points.sort()
        self._positions = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def __repr__(self) -> str:
        return (f"<HashRing shards={self.n_shards} "
                f"weights={self.weights} vnodes={len(self._positions)}>")

    def owner(self, key: str) -> int:
        """The shard owning ``key`` (first vnode at/after its position)."""
        position = _position(self.seed, f"key:{key}")
        index = bisect.bisect_left(self._positions, position)
        if index == len(self._positions):
            index = 0  # wrap past the top of the circle
        return self._owners[index]

    def owner_table(self, keys: typing.Iterable[str]) -> dict[str, int]:
        """``key -> owner`` for ``keys``, in their order, each answer
        taken from :meth:`owner`.

        A ring is immutable, so the table is valid for the ring's whole
        life.  The ring itself keeps none: a memo here would grow with
        every key ever asked about, while whoever routes over a closed
        key universe (:class:`~repro.shard.portal.ShardedPortal`) knows
        how large its table can get and when a successor replaces it.
        """
        return {key: self.owner(key) for key in keys}

    def assign(self, keys: typing.Iterable[str]) -> dict[int, list[str]]:
        """Ownership map ``shard -> keys`` (every key exactly once)."""
        out: dict[int, list[str]] = {s: [] for s in range(self.n_shards)}
        for key in keys:
            out[self.owner(key)].append(key)
        return out

    # ------------------------------------------------------------------
    # Successor rings (rebalancing)
    # ------------------------------------------------------------------
    def with_weight(self, shard: int, weight: int) -> "HashRing":
        """A successor ring with ``shard``'s weight set to ``weight``."""
        weights = dict(self.weights)
        weights[shard] = weight
        return HashRing(self.n_shards, self.seed, weights=weights,
                        vnodes_per_weight=self.vnodes_per_weight)

    def with_shard(self) -> "HashRing":
        """A successor ring with one more (weight-1) shard appended."""
        return HashRing(self.n_shards + 1, self.seed,
                        weights=dict(self.weights),
                        vnodes_per_weight=self.vnodes_per_weight)

    def moved_keys(self, successor: "HashRing",
                   keys: typing.Iterable[str]) -> dict[str, tuple[int, int]]:
        """Keys whose owner differs under ``successor``.

        Returns ``key -> (old_owner, new_owner)`` — the migration
        work-list for a rebalance step.  Deterministic iteration order:
        follows ``keys``.
        """
        old = self.owner_table(keys)
        return moved_between(old, successor.owner_table(old))


def moved_between(old: typing.Mapping[str, int],
                  new: typing.Mapping[str, int],
                  ) -> dict[str, tuple[int, int]]:
    """The diff of two owner tables over the same keys.

    ``key -> (old_owner, new_owner)`` for every key whose owner differs,
    in ``old``'s order — :meth:`HashRing.moved_keys` for a caller that
    already holds one or both tables.
    """
    return {key: (was, new[key]) for key, was in old.items()
            if new[key] != was}
