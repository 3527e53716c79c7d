"""Unit + property tests for named random streams."""

import bisect
import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import LoadgenConfig, build_schedule, qc_to_wire
from repro.sim.rng import RandomStream, StreamRegistry, _derive_seed
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec
from tests.zipf_reference import (bisect_cdf_reference,
                                  build_schedule_reference,
                                  zipf_rank_reference,
                                  zipf_sampler_reference)


class TestStreamRegistry:
    def test_same_name_same_stream_object(self):
        registry = StreamRegistry(0)
        assert registry.stream("a") is registry.stream("a")

    def test_different_names_different_sequences(self):
        registry = StreamRegistry(0)
        a = [registry.stream("a").random() for __ in range(5)]
        b = [registry.stream("b").random() for __ in range(5)]
        assert a != b

    def test_same_seed_reproducible(self):
        first = [StreamRegistry(7).stream("x").random() for __ in range(3)]
        second = [StreamRegistry(7).stream("x").random() for __ in range(3)]
        assert first == second

    def test_different_master_seeds_differ(self):
        a = StreamRegistry(1).stream("x").random()
        b = StreamRegistry(2).stream("x").random()
        assert a != b

    def test_spawn_is_deterministic_and_distinct(self):
        parent = StreamRegistry(5)
        child_a = parent.spawn("run1")
        child_b = parent.spawn("run1")
        assert child_a.master_seed == child_b.master_seed
        assert child_a.master_seed != parent.master_seed
        assert parent.spawn("run2").master_seed != child_a.master_seed

    def test_stream_isolation(self):
        """Consuming one stream must not perturb another."""
        registry_a = StreamRegistry(0)
        registry_a.stream("noise").random()  # consume
        value_a = registry_a.stream("signal").random()

        registry_b = StreamRegistry(0)
        value_b = registry_b.stream("signal").random()
        assert value_a == value_b

    @given(st.integers(min_value=0, max_value=2**31),
           st.text(min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_derive_seed_is_stable_64bit(self, master, name):
        seed = _derive_seed(master, name)
        assert 0 <= seed < 2 ** 64
        assert seed == _derive_seed(master, name)


class TestDistributions:
    def test_exponential_mean(self):
        rng = RandomStream(0, "t")
        samples = [rng.exponential(10.0) for __ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(10.0, rel=0.05)

    def test_exponential_requires_positive_mean(self):
        with pytest.raises(ValueError):
            RandomStream(0, "t").exponential(0.0)

    def test_zipf_rank_in_range(self):
        rng = RandomStream(1, "z")
        for __ in range(1000):
            rank = rng.zipf_rank(100, 0.9)
            assert 1 <= rank <= 100

    def test_zipf_rank_skew(self):
        """Rank 1 must be drawn far more often than rank 50."""
        rng = RandomStream(2, "z")
        counts = {}
        for __ in range(20_000):
            rank = rng.zipf_rank(100, 1.0)
            counts[rank] = counts.get(rank, 0) + 1
        assert counts.get(1, 0) > 10 * counts.get(50, 1)

    def test_zipf_theta_zero_is_uniformish(self):
        rng = RandomStream(3, "z")
        counts = [0] * 10
        for __ in range(20_000):
            counts[rng.zipf_rank(10, 0.0) - 1] += 1
        assert max(counts) < 1.25 * min(counts)

    def test_zipf_invalid_n(self):
        with pytest.raises(ValueError):
            RandomStream(0, "z").zipf_rank(0, 1.0)

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.integers(min_value=1, max_value=500))
    @settings(max_examples=30)
    def test_zipf_rank_always_valid(self, theta, n):
        rng = RandomStream(0, "prop")
        for __ in range(20):
            assert 1 <= rng.zipf_rank(n, theta) <= n

    def test_repr_contains_name(self):
        assert "quotes" in repr(RandomStream(0, "quotes"))


class TestCopies:
    """A pickled or deep-copied stream continues the same sequence."""

    @pytest.mark.parametrize("copy_of", [
        lambda stream: pickle.loads(pickle.dumps(stream)),
        copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copy_taken_mid_sequence_continues_it(self, copy_of):
        stream = StreamRegistry(1).stream("quotes")
        for __ in range(5):
            stream.random()
        stream.gauss(0.0, 1.0)  # leaves a cached second normal variate
        twin = copy_of(stream)
        assert type(twin) is RandomStream and twin is not stream
        assert (twin.name, twin.initial_seed) == (stream.name,
                                                  stream.initial_seed)
        assert [twin.random() for __ in range(50)] == [
            stream.random() for __ in range(50)]
        assert twin.gauss(0.0, 1.0) == stream.gauss(0.0, 1.0)


class TestZipfCdfCache:
    def test_cdf_terminates_at_one(self):
        from repro.sim.rng import _zipf_cdf
        cdf = _zipf_cdf(50, 0.8)
        assert cdf[-1] == 1.0
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_cache_returns_same_object(self):
        from repro.sim.rng import _zipf_cdf
        assert _zipf_cdf(64, 0.9) is _zipf_cdf(64, 0.9)

    def test_monotone_decreasing_mass(self):
        from repro.sim.rng import _zipf_cdf
        cdf = _zipf_cdf(20, 1.2)
        masses = [cdf[0]] + [b - a for a, b in zip(cdf, cdf[1:])]
        assert all(m1 >= m2 - 1e-12 for m1, m2 in zip(masses, masses[1:]))
        assert math.isclose(sum(masses), 1.0, rel_tol=1e-9)


class TestZipfAgainstReference:
    """``zipf_sampler`` (and ``zipf_rank``, one draw of it) bisects in C
    with the CDF looked up once, and the generator loops hold a sampler;
    all must draw exactly what the hand-written per-draw loops drew
    (``tests/zipf_reference.py``)."""

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.floats(min_value=0.0, max_value=10.0),
                            min_size=1, max_size=40),
           data=st.data())
    def test_bisect_left_matches_the_hand_written_loop(self, weights, data):
        total = math.fsum(weights) or 1.0
        acc, cdf = 0.0, []
        for weight in weights:          # zero weights repeat an entry
            acc += weight / total
            cdf.append(min(acc, 1.0))
        cdf[-1] = 1.0
        # Any u in [0, 1), or exactly on a CDF entry.
        u = data.draw(st.one_of(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.sampled_from(cdf)))
        index = bisect.bisect_left(cdf, u)
        assert index == bisect_cdf_reference(cdf, u)
        assert index < len(cdf)

    @pytest.mark.parametrize("n,theta", [(512, 0.9), (512, 0.75),
                                         (4608, 0.9), (1, 1.0), (10, 0.0)])
    def test_zipf_rank_and_sampler_draw_the_reference_ranks(self, n, theta):
        reference = RandomStream(5, "ref")
        expected = [zipf_rank_reference(reference, n, theta)
                    for __ in range(2000)]
        rank_stream, sampler_stream = (RandomStream(5, "ref"),
                                       RandomStream(5, "ref"))
        sampler = sampler_stream.zipf_sampler(n, theta)
        assert [rank_stream.zipf_rank(n, theta)
                for __ in range(2000)] == expected
        assert [sampler() for __ in range(2000)] == expected
        # The streams are left in the same state, draw for draw.
        assert rank_stream.random() == sampler_stream.random() \
            == reference.random()

    def test_zipf_sampler_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            RandomStream(0, "z").zipf_sampler(0, 1.0)

    def test_live_schedule_is_value_identical(self):
        """The benchmark's ``live_overload`` schedule: seed 7, 3x, 12 s."""
        config = LoadgenConfig(duration_ms=12_000.0, rate_multiplier=3.0,
                               master_seed=7)

        def rows(schedule):
            return [(a.at_ms, a.kind, a.items, a.exec_ms, a.value,
                     None if a.qc is None else qc_to_wire(a.qc))
                    for a in schedule]

        schedule = rows(build_schedule(config))
        assert len(schedule) > 14_000
        assert schedule == rows(build_schedule_reference(config))

    def test_stock_trace_is_value_identical(self, monkeypatch):
        """A 60 s ``StockWorkloadGenerator`` trace, generated once as is
        and once with its samplers swapped for the reference loop."""
        spec = WorkloadSpec().scaled(60_000.0)
        trace = StockWorkloadGenerator(spec, 7).generate()
        monkeypatch.setattr(RandomStream, "zipf_sampler",
                            zipf_sampler_reference)
        reference = StockWorkloadGenerator(spec, 7).generate()
        assert len(trace.updates) > 10_000
        assert trace.queries == reference.queries
        assert trace.updates == reference.updates
