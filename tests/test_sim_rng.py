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
from tests.trace_reference import reference_records
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


def _stdlib_twin(seed):
    """Two streams in the same state: one for a sampler, one for the
    stdlib call it restates."""
    return RandomStream(seed, "twin"), RandomStream(seed, "twin")


class TestExactSamplers:
    """``beta_sampler`` and ``gauss_sampler`` draw exactly what the
    running interpreter's ``betavariate`` and ``gauss`` draw: the same
    values, bit for bit, and the same stream state afterwards."""

    SHAPES = (0.3, 1.0, 1.5, 7.0)  # GS, exponential, Cheng, Cheng

    @pytest.mark.parametrize("alpha", SHAPES)
    @pytest.mark.parametrize("beta", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_beta_sampler_matches_betavariate(self, alpha, beta, seed):
        stream, reference = _stdlib_twin(seed)
        draw = stream.beta_sampler(alpha, beta)
        assert [draw() for __ in range(400)] == [
            reference.betavariate(alpha, beta) for __ in range(400)]
        assert stream.getstate() == reference.getstate()

    @pytest.mark.parametrize("mean", [1.5, 2.6, 3.0, 4.5])
    def test_beta_sampler_range_matches_scaled_betavariate(self, mean):
        # The update service-time law on 1-5 ms: b > 1, b == 1, b < 1.
        low, high = 1.0, 5.0
        b = 1.0 / ((mean - low) / (high - low)) - 1.0
        stream, reference = _stdlib_twin(11)
        draw = stream.beta_sampler(1.0, b, low, high)
        assert [draw() for __ in range(400)] == [
            low + (high - low) * reference.betavariate(1.0, b)
            for __ in range(400)]
        assert stream.getstate() == reference.getstate()

    @pytest.mark.parametrize("beta", [1.5, 0.3])
    def test_beta_sampler_zero_first_draw(self, beta):
        # A uniform of exactly 0.0 makes the exponential -0.0, so
        # betavariate returns 0.0 without drawing the second gamma.
        draws = {}
        for name in ("sampler", "stdlib"):
            fed = [0.5, 0.0]  # popped from the end
            stream = RandomStream(3, "u")
            stream.random = fed.pop
            value = (stream.beta_sampler(1.0, beta)() if name == "sampler"
                     else stream.betavariate(1.0, beta))
            draws[name] = (value, fed)
        assert draws["sampler"] == draws["stdlib"] == (0.0, [0.5])

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.0, -2.0),
                                            (math.nan, 1.0)])
    def test_beta_sampler_rejects_bad_shapes(self, alpha, beta):
        with pytest.raises(ValueError):
            RandomStream(0, "b").beta_sampler(alpha, beta)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 401])
    def test_gauss_sampler_matches_gauss(self, seed, n):
        stream, reference = _stdlib_twin(seed)
        draw = stream.gauss_sampler(0.0, 0.001)
        assert [draw() for __ in range(n)] == [
            reference.gauss(0.0, 0.001) for __ in range(n)]
        # An odd count leaves a spare normal: it is in the state too.
        assert stream.getstate() == reference.getstate()

    def test_gauss_sampler_interleaves_with_gauss(self):
        stream, reference = _stdlib_twin(5)
        draw = stream.gauss_sampler(2.0, 3.0)
        pattern = [0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0] * 20
        got = [draw() if p else stream.gauss(-1.0, 0.5) for p in pattern]
        want = [reference.gauss(2.0, 3.0) if p else
                reference.gauss(-1.0, 0.5) for p in pattern]
        assert got == want
        assert stream.getstate() == reference.getstate()

    @pytest.mark.parametrize("copy_of", [
        lambda stream: pickle.loads(pickle.dumps(stream)),
        copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copy_taken_mid_sequence_continues_it(self, copy_of):
        stream, reference = _stdlib_twin(9)
        beta = stream.beta_sampler(1.0, 1.5)
        gauss = stream.gauss_sampler(0.0, 1.0)
        for __ in range(7):  # odd: the copy carries a spare normal
            assert beta() == reference.betavariate(1.0, 1.5)
            assert gauss() == reference.gauss(0.0, 1.0)
        twin = copy_of(stream)
        assert twin.getstate() == reference.getstate()
        twin_beta = twin.beta_sampler(1.0, 1.5)
        twin_gauss = twin.gauss_sampler(0.0, 1.0)
        for __ in range(50):
            want = (reference.betavariate(1.0, 1.5),
                    reference.gauss(0.0, 1.0))
            assert (beta(), gauss()) == want
            assert (twin_beta(), twin_gauss()) == want


class TestZipfCdfCache:
    def test_cdf_terminates_at_one(self):
        from repro.sim.rng import zipf_cdf
        cdf = zipf_cdf(50, 0.8)
        assert cdf[-1] == 1.0
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_cache_returns_same_object(self):
        from repro.sim.rng import zipf_cdf
        assert zipf_cdf(64, 0.9) is zipf_cdf(64, 0.9)

    def test_monotone_decreasing_mass(self):
        from repro.sim.rng import zipf_cdf
        cdf = zipf_cdf(20, 1.2)
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
        """A 60 s ``StockWorkloadGenerator`` trace, which bisects the
        cached CDF in its row loops, against the reference generator
        with its Zipf draws swapped for the hand-written loop."""
        spec = WorkloadSpec().scaled(60_000.0)
        trace = StockWorkloadGenerator(spec, 7).generate()
        monkeypatch.setattr(RandomStream, "zipf_sampler",
                            zipf_sampler_reference)
        queries, updates = reference_records(spec, 7)
        assert len(trace.updates) > 10_000
        assert trace.queries == queries
        assert trace.updates == updates
