"""Property tests for the consistent-hash ring (repro.shard.ring).

The three properties the rebalancer's correctness rests on:

* **bijective ownership** — every key has exactly one owner, stable
  across calls and across reconstructed rings with the same seed;
* **balance** — at the paper's keyspace size (4,608 stocks) no shard
  owns more than a small factor of its fair share;
* **minimal movement** — growing the ring (new shard / raised weight)
  only moves keys *onto* the new arcs; shrinking a shard's weight only
  moves keys *off* that shard.  This is what makes a weight decrement a
  targeted hot-shard drain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import ring as ring_module
from repro.shard.ring import HashRing
from tests.ring_reference import moved_keys_reference

#: The paper's stock universe, as the workload generator names it.
STOCKS = [f"S{i}" for i in range(4_608)]


class TestConstruction:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            HashRing(0, seed=1)
        with pytest.raises(ValueError):
            HashRing(2, seed=1, vnodes_per_weight=0)
        with pytest.raises(ValueError):
            HashRing(2, seed=1, weights={5: 1})
        with pytest.raises(ValueError):
            HashRing(2, seed=1, weights={0: 0})

    def test_same_seed_same_ring(self):
        a = HashRing(4, seed=42)
        b = HashRing(4, seed=42)
        assert all(a.owner(k) == b.owner(k) for k in STOCKS)

    def test_different_seeds_differ(self):
        a = HashRing(4, seed=1)
        b = HashRing(4, seed=2)
        assert any(a.owner(k) != b.owner(k) for k in STOCKS)


class TestOwnership:
    @given(st.integers(min_value=1, max_value=9),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_assign_is_a_partition(self, n_shards, seed):
        ring = HashRing(n_shards, seed)
        assigned = ring.assign(STOCKS)
        flat = [key for keys in assigned.values() for key in keys]
        assert sorted(flat) == sorted(STOCKS)  # every key exactly once
        for shard, keys in assigned.items():
            assert all(ring.owner(k) == shard for k in keys)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_owner_in_range(self, seed):
        ring = HashRing(5, seed)
        assert all(0 <= ring.owner(k) < 5 for k in STOCKS[:256])


class TestBalance:
    @given(st.sampled_from([2, 4, 8]),
           st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_max_share_bounded(self, n_shards, seed):
        """No shard owns more than 2x its fair share of the 4,608
        stocks (the vnode count is chosen to keep this comfortably)."""
        ring = HashRing(n_shards, seed)
        counts = [len(keys) for keys in ring.assign(STOCKS).values()]
        fair = len(STOCKS) / n_shards
        assert max(counts) <= 2.0 * fair
        assert min(counts) > 0

    def test_weight_shifts_share(self):
        """Doubling one shard's weight should grow its share."""
        seed = 7
        even = HashRing(4, seed)
        skewed = HashRing(4, seed, weights={0: 2})
        even_share = len(even.assign(STOCKS)[0])
        skewed_share = len(skewed.assign(STOCKS)[0])
        assert skewed_share > even_share


class TestMinimalMovement:
    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_add_shard_only_moves_to_new_shard(self, seed):
        ring = HashRing(4, seed)
        grown = ring.with_shard()
        moved = ring.moved_keys(grown, STOCKS)
        assert moved  # the new shard claims *something*
        for old, new in moved.values():
            assert new == 4  # ...and only the new shard gains keys
            assert old != new

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_weight_decrement_drains_only_that_shard(self, seed):
        """The rebalancer's core assumption: dropping a hot shard's
        weight moves keys exclusively *off* the hot shard."""
        ring = HashRing(4, seed, weights={s: 4 for s in range(4)})
        shrunk = ring.with_weight(2, 3)
        moved = ring.moved_keys(shrunk, STOCKS)
        assert moved
        for old, new in moved.values():
            assert old == 2
            assert new != 2

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=15, deadline=None)
    def test_weight_increment_fills_only_that_shard(self, seed):
        ring = HashRing(4, seed, weights={s: 4 for s in range(4)})
        grown = ring.with_weight(1, 5)
        for _old, new in ring.moved_keys(grown, STOCKS).values():
            assert new == 1

    def test_movement_is_a_small_fraction(self):
        """One weight step at weight 4 moves roughly 1/16 of one
        shard's keys' worth — far from a full reshuffle."""
        ring = HashRing(4, seed=11, weights={s: 4 for s in range(4)})
        shrunk = ring.with_weight(3, 3)
        moved = ring.moved_keys(shrunk, STOCKS)
        assert 0 < len(moved) < len(STOCKS) * 0.15

    def test_unchanged_ring_moves_nothing(self):
        ring = HashRing(4, seed=3)
        assert ring.moved_keys(ring.with_weight(0, 1), STOCKS) == {}


# ----------------------------------------------------------------------
# Placement as a table: owner_table / moved_between vs per-key look-ups
# ----------------------------------------------------------------------
#: One successor step: ``None`` appends a shard, ``(shard, weight)``
#: re-weights one (the shard index wraps to the ring's current size).
ring_steps = st.lists(
    st.none() | st.tuples(st.integers(min_value=0, max_value=7),
                          st.integers(min_value=1, max_value=5)),
    max_size=4)
#: Universe keys and strangers, duplicates allowed.
key_lists = st.lists(st.sampled_from(STOCKS[:200])
                     | st.text(min_size=1, max_size=4), max_size=60)


class TestOwnerTable:
    @given(seed=st.integers(min_value=0, max_value=2**32),
           n_shards=st.integers(min_value=1, max_value=8),
           steps=ring_steps, keys=key_lists)
    @settings(max_examples=60, deadline=None)
    def test_tables_and_their_diff_match_per_key_lookups(
            self, seed, n_shards, steps, keys):
        ring = HashRing(n_shards, seed, vnodes_per_weight=8)
        for step in steps:
            table = ring.owner_table(keys)
            assert table == {key: ring.owner(key) for key in keys}
            assert list(table) == list(dict.fromkeys(keys))
            if step is None:
                successor = ring.with_shard()
            else:
                successor = ring.with_weight(step[0] % ring.n_shards,
                                             step[1])
            expected = moved_keys_reference(ring, successor, keys)
            for moved in (ring.moved_keys(successor, keys),
                          ring.moved_keys(successor, iter(keys)),
                          ring_module.moved_between(
                              table, successor.owner_table(keys))):
                assert moved == expected
                assert list(moved) == list(expected)
            ring = successor

    def test_the_ring_itself_keeps_no_memo(self, monkeypatch):
        """``owner()`` stays a hash + bisect per call (``bench/micro.py``
        times exactly that) and a table belongs to whoever asked."""
        hashed = []
        position = ring_module._position
        monkeypatch.setattr(
            ring_module, "_position",
            lambda seed, label: hashed.append(label) or position(seed, label))
        ring = HashRing(4, seed=5, vnodes_per_weight=4)
        del hashed[:]
        first = ring.owner_table(["S0", "S1"])
        assert [ring.owner("S0") for _ in range(3)] == [first["S0"]] * 3
        assert hashed == ["key:S0", "key:S1"] + ["key:S0"] * 3
        first["S0"] = -1
        assert ring.owner_table(["S0"]) == {"S0": ring.owner("S0")}
