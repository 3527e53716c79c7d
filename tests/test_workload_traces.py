"""Unit tests for trace containers and CSV persistence."""

import math
import pickle

import pytest

from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec
from repro.workload.traces import (QueryRecord, RecordColumns, Trace,
                                   UpdateRecord, replay_rows)


def small_trace():
    queries = [QueryRecord(10.0, ("A", "B"), 7.0),
               QueryRecord(5.0, ("C",), 6.0)]
    updates = [UpdateRecord(1.0, "A", 2.0, value=3.5),
               UpdateRecord(20.0, "B", 1.5, value=4.5)]
    return Trace(queries, updates, duration_ms=30.0, name="tiny")


class TestRecords:
    def test_query_record_validation(self):
        with pytest.raises(ValueError):
            QueryRecord(0.0, ("A",), 0.0)
        with pytest.raises(ValueError):
            QueryRecord(0.0, (), 5.0)

    def test_update_record_validation(self):
        with pytest.raises(ValueError):
            UpdateRecord(0.0, "A", -1.0)

    def test_records_frozen(self):
        record = QueryRecord(0.0, ("A",), 5.0)
        with pytest.raises(AttributeError):
            record.exec_ms = 9.0  # type: ignore[misc]

    @pytest.mark.parametrize("exec_ms", [math.nan, math.inf, 0.0, -1.0])
    def test_exec_ms_must_be_finite_and_positive(self, exec_ms):
        with pytest.raises(ValueError, match="exec_ms"):
            QueryRecord(0.0, ("A",), exec_ms)
        with pytest.raises(ValueError, match="exec_ms"):
            UpdateRecord(0.0, "A", exec_ms)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_value_must_be_finite(self, value):
        with pytest.raises(ValueError, match="value"):
            UpdateRecord(0.0, "A", 2.0, value=value)

    def test_empty_symbols_rejected(self):
        with pytest.raises(ValueError, match="item"):
            UpdateRecord(0.0, "", 2.0)
        with pytest.raises(ValueError, match="items"):
            QueryRecord(0.0, ("A", ""), 5.0)

    def test_non_finite_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival_ms"):
            QueryRecord(math.nan, ("A",), 5.0)


class TestColumnValidation:
    """The same rules at column construction, naming field and row."""

    def test_bad_cell_names_field_and_row(self):
        with pytest.raises(ValueError, match=r"exec_ms .* at row 2"):
            RecordColumns(UpdateRecord, [0.0, 1.0, 2.0], ["A", "B", "C"],
                          [1.0, 2.0, math.nan], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"value .* at row 0"):
            RecordColumns(UpdateRecord, [0.0], ["A"], [1.0], [math.inf])
        with pytest.raises(ValueError, match=r"item .* at row 1"):
            RecordColumns(UpdateRecord, [0.0, 1.0], ["A", ""], [1.0, 1.0],
                          [0.0, 0.0])
        with pytest.raises(ValueError, match=r"items .* at row 0"):
            RecordColumns(QueryRecord, [0.0], [()], [5.0])
        with pytest.raises(ValueError, match=r"items .* at row 1"):
            RecordColumns(QueryRecord, [0.0, 1.0], [("A",), ("B", "")],
                          [5.0, 5.0])

    def test_order_is_verified_not_repaired(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            RecordColumns(QueryRecord, [5.0, 4.0], [("A",), ("B",)],
                          [5.0, 5.0])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="equally long"):
            RecordColumns(QueryRecord, [0.0, 1.0], [("A",)], [5.0, 5.0])
        with pytest.raises(ValueError, match="equally long"):
            RecordColumns(QueryRecord, [0.0], [("A",)])

    @pytest.mark.parametrize("bad, field", [
        ("nan", "exec_ms"), ("inf", "exec_ms"), ("0", "exec_ms"),
        ("-2.5", "exec_ms"), ("", "item"), ("nan", "value")])
    def test_csv_carrying_a_bad_cell_is_rejected(self, tmp_path, bad, field):
        small_trace().save(tmp_path / "t")
        path = tmp_path / "t" / "updates.csv"
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[header.split(",").index(field)] = bad
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(ValueError, match=rf"{field} .* at row 1"):
            Trace.load(tmp_path / "t")

    def test_csv_with_an_empty_read_set_is_rejected(self, tmp_path):
        small_trace().save(tmp_path / "t")
        path = tmp_path / "t" / "queries.csv"
        path.write_text(path.read_text().replace("A|B", ""))
        with pytest.raises(ValueError, match=r"items .* at row 1"):
            Trace.load(tmp_path / "t")


class TestTrace:
    def test_sorted_on_construction(self):
        trace = small_trace()
        assert [q.arrival_ms for q in trace.queries] == [5.0, 10.0]
        assert [u.arrival_ms for u in trace.updates] == [1.0, 20.0]

    def test_stocks_union(self):
        assert small_trace().stocks == {"A", "B", "C"}

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            Trace([], [], duration_ms=0.0)

    def test_arrivals_outside_duration_rejected(self):
        with pytest.raises(ValueError):
            Trace([QueryRecord(50.0, ("A",), 5.0)], [], duration_ms=30.0)

    def test_slice_prefix(self):
        trace = small_trace()
        prefix = trace.slice(8.0)
        assert len(prefix.queries) == 1
        assert len(prefix.updates) == 1
        assert prefix.duration_ms == 8.0

    def test_slice_is_the_arrival_filter(self):
        trace = StockWorkloadGenerator(WorkloadSpec().scaled(4_000.0),
                                       master_seed=3).generate()
        # Cut exactly on an arrival: "<= end_ms" keeps it (and any ties).
        for end_ms in (1_234.5, trace.updates[40].arrival_ms, 4_000.0):
            prefix = trace.slice(end_ms)
            assert prefix.queries == [q for q in trace.queries
                                      if q.arrival_ms <= end_ms]
            assert prefix.updates == [u for u in trace.updates
                                      if u.arrival_ms <= end_ms]

    def test_slice_bounds(self):
        trace = small_trace()
        with pytest.raises(ValueError):
            trace.slice(0.0)
        with pytest.raises(ValueError):
            trace.slice(100.0)

    def test_roundtrip_save_load(self, tmp_path):
        trace = small_trace()
        trace.save(tmp_path / "t")
        loaded = Trace.load(tmp_path / "t")
        assert loaded.name == trace.name
        assert loaded.duration_ms == trace.duration_ms
        assert loaded.queries == trace.queries
        assert loaded.updates == trace.updates

    def test_roundtrip_is_bit_exact_on_a_generated_trace(self, tmp_path):
        trace = StockWorkloadGenerator(WorkloadSpec().scaled(2_500.0),
                                       master_seed=5).generate()
        trace.save(tmp_path / "t")
        loaded = Trace.load(tmp_path / "t")
        assert loaded.queries == trace.queries
        assert loaded.updates == trace.updates
        copy = pickle.loads(pickle.dumps(trace))
        assert (copy.queries, copy.updates) == (trace.queries, trace.updates)
        assert (copy.duration_ms, copy.name) == (trace.duration_ms,
                                                 trace.name)

    def test_roundtrip_preserves_multi_item_reads(self, tmp_path):
        trace = small_trace()
        trace.save(tmp_path / "t")
        loaded = Trace.load(tmp_path / "t")
        assert loaded.queries[1].items == ("A", "B")


class TestViews:
    """``trace.queries`` / ``trace.updates``: read-only sequences."""

    def test_sequence_protocol(self):
        trace = small_trace()
        early, late = (QueryRecord(5.0, ("C",), 6.0),
                       QueryRecord(10.0, ("A", "B"), 7.0))
        assert len(trace.queries) == 2
        assert trace.queries[0] == early
        assert trace.queries[-1] == late
        assert trace.queries[0:1] == [early]
        assert trace.queries[::-1] == [late, early]
        assert list(trace.queries) == [early, late]
        assert late in trace.queries
        with pytest.raises(IndexError):
            trace.queries[2]

    def test_equality_and_truthiness(self):
        trace, again = small_trace(), small_trace()
        assert trace.queries == again.queries
        assert trace.updates == list(again.updates)
        assert trace.updates != list(again.updates)[:1]
        assert trace.queries != trace.updates
        assert trace.queries != "queries"
        assert trace.queries and trace.updates
        assert not Trace([], [], duration_ms=1.0).queries

    def test_views_are_read_only(self):
        trace = small_trace()
        with pytest.raises(AttributeError):
            trace.queries.append(QueryRecord(1.0, ("A",), 5.0))
        with pytest.raises(TypeError):
            trace.queries[0] = QueryRecord(1.0, ("A",), 5.0)
        with pytest.raises(TypeError):
            del trace.updates[0]
        with pytest.raises(TypeError):
            hash(trace.queries)

    def test_unsorted_records_are_sorted_stably(self):
        updates = [UpdateRecord(7.0, "B", 1.0, value=1.0),
                   UpdateRecord(3.0, "A", 1.0, value=2.0),
                   UpdateRecord(7.0, "A", 1.0, value=3.0),
                   UpdateRecord(3.0, "C", 1.0, value=4.0)]
        trace = Trace([], updates, duration_ms=10.0)
        assert [u.value for u in trace.updates] == [2.0, 4.0, 1.0, 3.0]

    def test_a_view_passes_through_trace_construction(self):
        trace = small_trace()
        rebuilt = Trace(trace.queries, trace.updates, trace.duration_ms)
        assert rebuilt.queries is trace.queries

    def test_rows_are_the_records_fields(self):
        trace = small_trace()
        assert list(trace.updates.rows()) == [(1.0, "A", 2.0, 3.5),
                                              (20.0, "B", 1.5, 4.5)]
        assert (list(replay_rows(UpdateRecord, list(trace.updates)))
                == list(replay_rows(UpdateRecord, trace.updates)))

    def test_partition_is_stable_and_complete(self):
        trace = StockWorkloadGenerator(WorkloadSpec().scaled(3_000.0),
                                       master_seed=2).generate()
        parts = trace.updates.partition("item", lambda item: len(item) % 3, 3)
        streams = [list(stream) for stream in parts]
        assert sum(map(len, streams)) == len(trace.updates)
        for part, stream in enumerate(streams):
            assert stream == [row for row in trace.updates.rows()
                              if len(row[1]) % 3 == part]
