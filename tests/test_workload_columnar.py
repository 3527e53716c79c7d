"""The columnar trace: bit-identity with the record-list reference
generator, and a deterministic memory guard.

``tests/trace_reference.py`` keeps the pre-columnar algorithm (one record
per transaction, one global stable sort).  The production generator never
sorts the whole trace — it flushes time-ordered rows second by second —
so every property here is a statement about that flush: bursts that
spread past their second, arrivals clamped onto ``duration_ms`` (ties the
stable order must survive), partial last seconds, sub-second traces.
"""

import dataclasses
import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.scaleout import hot_key_spec
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

from .trace_reference import reference_records


def assert_matches_reference(spec, seed):
    trace = StockWorkloadGenerator(spec, master_seed=seed).generate()
    queries, updates = reference_records(spec, seed)
    # View == list compares record by record: every field, bit for bit.
    assert trace.queries == queries
    assert trace.updates == updates
    return trace


class TestBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31),
           duration_ms=st.one_of(st.floats(50.0, 999.0),
                                 st.floats(1_000.0, 12_000.0)),
           burst_window_ms=st.floats(0.0, 5_000.0),
           burst_mean=st.one_of(st.just(1.0), st.floats(1.0, 6.0)),
           # Beta(1, b) service times on 1-5 ms: a mean of 3.0 makes b
           # exactly 1.0, a lower one b > 1 and a higher one b < 1.
           update_exec_mean_ms=st.one_of(st.just(3.0),
                                         st.floats(1.05, 4.95)),
           hot=st.booleans())
    def test_matches_reference(self, seed, duration_ms, burst_window_ms,
                               burst_mean, update_exec_mean_ms, hot):
        spec = dataclasses.replace(
            WorkloadSpec().scaled(duration_ms),
            update_burst_window_ms=burst_window_ms,
            update_burst_mean=burst_mean,
            update_exec_mean_ms=update_exec_mean_ms)
        assert_matches_reference(hot_key_spec(spec) if hot else spec, seed)

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_arrivals_clamped_onto_the_end_keep_generation_order(self, seed):
        # A burst window several times the trace length clamps most trades
        # to exactly duration_ms: hundreds of equal arrivals whose order is
        # the order they were generated in, across many flushes.
        spec = dataclasses.replace(WorkloadSpec().scaled(3_500.0),
                                   update_burst_window_ms=20_000.0,
                                   update_burst_mean=5.0)
        trace = assert_matches_reference(spec, seed)
        clamped = sum(1 for u in trace.updates if u.arrival_ms == 3_500.0)
        assert clamped > 200

    def test_full_minute_paper_spec(self):
        assert_matches_reference(WorkloadSpec().scaled(60_000.0), 7)

    def test_full_scale_smoke(self):
        # Table 3 scale, one seed: the whole 30-minute trace.
        trace = assert_matches_reference(WorkloadSpec(), 7)
        assert len(trace.queries) + len(trace.updates) > 500_000


class TestMemoryGuard:
    """Deterministic (tracemalloc, not RSS): what a trace retains and
    what building it peaks at, per transaction."""

    def test_retained_and_peak_bytes_per_transaction(self):
        generator = StockWorkloadGenerator(WorkloadSpec().scaled(60_000.0),
                                           master_seed=7)
        generator.generate()  # warm caches outside the measurement
        gc.collect()
        tracemalloc.start()
        try:
            trace = generator.generate()
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(trace.queries) + len(trace.updates)
        # The record lists this replaced kept ~192 bytes per transaction.
        assert retained / n <= 64, f"{retained / n:.1f} bytes/txn retained"
        assert peak <= 2 * retained, (
            f"generation peaked at {peak / retained:.2f}x what it retains")
