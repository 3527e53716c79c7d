"""Targeted tests for remaining configuration paths and invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.health import HealthConfig
from repro.db.database import Database
from repro.db.server import DatabaseServer, ServerConfig
from repro.db.transactions import Query, TxnStatus, Update
from repro.db.wal import DurabilityConfig
from repro.faults import FaultEvent, FaultIncident
from repro.metrics.profit import ProfitLedger
from repro.qc.contracts import CompositionMode, QualityContract
from repro.scheduling import QUTSScheduler, make_uh
from repro.serve.gateway import GatewayConfig
from repro.serve.loadgen import LoadgenConfig
from repro.serve.retry import RetryBudget
from repro.shard.portal import RebalanceConfig
from repro.sim import Environment
from repro.sim.rng import StreamRegistry
from repro.workload.synthetic import WorkloadSpec

nonneg = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


class TestDropLateQueriesOff:
    def test_late_query_still_commits_when_dropping_disabled(self):
        env = Environment()
        ledger = ProfitLedger()
        server = DatabaseServer(
            env, Database(), make_uh(), ledger, StreamRegistry(0),
            config=ServerConfig(class_switch_overhead=0.0,
                                drop_late_queries=False))

        def scenario(env):
            query = Query(0.0, 7.0, ("A",),
                          QualityContract.step(10, 50, 10, 1,
                                               lifetime=10.0))
            server.submit_query(query)
            for k in range(10):
                server.submit_update(Update(0.0, 2.0, f"U{k}"))
            yield env.timeout(0)
            return query

        proc = env.process(scenario(env))
        env.run(until=200.0)
        query = proc.value
        # Past its 10 ms lifetime, but dropping is disabled: it commits.
        assert query.status is TxnStatus.COMMITTED
        assert query.finish_time > 10.0
        assert ledger.counters.value("queries_dropped_lifetime") == 0


class TestContractEvaluationBounds:
    @given(nonneg, nonneg, st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=0.5, max_value=100.0), nonneg, nonneg)
    @settings(max_examples=150)
    def test_step_evaluation_bounded(self, qosmax, qodmax, rtmax, uumax,
                                     rt, staleness):
        qc = QualityContract.step(qosmax, rtmax, qodmax, uumax)
        qos, qod = qc.evaluate(rt, staleness)
        assert 0.0 <= qos <= qosmax
        assert 0.0 <= qod <= qodmax
        assert qos in (0.0, qosmax)
        assert qod in (0.0, qodmax)

    @given(nonneg, nonneg, st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=0.5, max_value=100.0), nonneg, nonneg)
    @settings(max_examples=150)
    def test_linear_evaluation_bounded(self, qosmax, qodmax, rtmax, uumax,
                                       rt, staleness):
        qc = QualityContract.linear(qosmax, rtmax, qodmax, uumax)
        qos, qod = qc.evaluate(rt, staleness)
        assert 0.0 <= qos <= qosmax
        assert 0.0 <= qod <= qodmax

    @given(nonneg, nonneg, nonneg, nonneg)
    @settings(max_examples=100)
    def test_dependent_never_exceeds_independent(self, qosmax, qodmax,
                                                 rt, staleness):
        independent = QualityContract.step(
            qosmax, 50.0, qodmax, 1.0,
            mode=CompositionMode.QOS_INDEPENDENT)
        dependent = QualityContract.step(
            qosmax, 50.0, qodmax, 1.0,
            mode=CompositionMode.QOS_DEPENDENT)
        ind = sum(independent.evaluate(rt, staleness))
        dep = sum(dependent.evaluate(rt, staleness))
        assert dep <= ind + 1e-12


class TestCLIFig9Smoke:
    def test_fig9_smoke(self, capsys):
        assert main(["fig9", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "mean rho" in out
        assert "rho over time" in out


NAN = float("nan")

NAN_FIELDS = [
    (ServerConfig, "class_switch_overhead", NAN),
    (QUTSScheduler, "tau", NAN),
    (QUTSScheduler, "omega", NAN),
    *[(WorkloadSpec, name, NAN) for name in (
        "duration_ms", "query_rate_per_s", "update_rate_per_s",
        "crowds_per_5min", "update_burst_mean", "update_burst_window_ms",
        "query_zipf_theta", "update_zipf_theta")],
    (WorkloadSpec, "crowd_duration_s", (NAN, 6.0)),
    (WorkloadSpec, "crowd_multiplier", (3.0, NAN)),
    *[(RebalanceConfig, name, NAN) for name in (
        "interval_ms", "skew_threshold", "drain_poll_ms",
        "drain_timeout_ms")],
    (DurabilityConfig, "checkpoint_interval_ms", NAN),
    *[(GatewayConfig, name, NAN) for name in (
        "slice_ms", "cpu_speed", "sweep_interval_ms", "deadline_factor",
        "retry_after_ms")],
    *[(HealthConfig, name, NAN) for name in (
        "trip_suspicion", "clear_suspicion", "gap_points",
        "failure_points", "gap_halflife_ms", "open_ms", "probe_backoff",
        "max_open_ms")],
    (RetryBudget, "fraction", NAN),
    (LoadgenConfig, "duration_ms", NAN),
    (LoadgenConfig, "rate_multiplier", NAN),
]


@pytest.mark.parametrize(
    "cls, field, value", NAN_FIELDS,
    ids=[f"{cls.__name__}.{field}" for cls, field, __ in NAN_FIELDS])
def test_nan_config_value_rejected(cls, field, value):
    # ``x <= 0`` is False for NaN: every guard must be written so that a
    # NaN fails it instead of constructing a silently wrong run.
    with pytest.raises(ValueError):
        cls(**{field: value})


#: Fault-layer records that need a kind (and a target) to construct; each
#: row is the valid base arguments plus the field set to NaN.  Chaos repro
#: JSON reaches these through ``json.loads``, which accepts ``NaN``.
NAN_FAULT_FIELDS = [
    (FaultEvent, {"kind": "crash", "replica": 0}, "at_ms"),
    (FaultEvent, {"at_ms": 0.0, "kind": "slow_replica", "replica": 0},
     "magnitude"),
    (FaultEvent, {"at_ms": 0.0, "kind": "spike_start"}, "magnitude"),
    (FaultEvent, {"at_ms": 0.0, "kind": "delay_updates", "replica": 0},
     "magnitude"),
    (FaultEvent, {"at_ms": 0.0, "kind": "corrupt_wal", "replica": 0},
     "magnitude"),
    (FaultIncident, {"kind": "crash", "replica": 0, "duration_ms": 1.0},
     "at_ms"),
    (FaultIncident, {"kind": "crash", "replica": 0, "at_ms": 0.0},
     "duration_ms"),
    # ``events()`` clamps magnitudes with ``max``, and max(1.5, nan) is
    # 1.5: a NaN would replay as a different incident, not fail.
    (FaultIncident, {"kind": "slow_replica", "replica": 0, "at_ms": 0.0,
                     "duration_ms": 1.0}, "magnitude"),
    (FaultIncident, {"kind": "delay_updates", "replica": 0, "at_ms": 0.0,
                     "duration_ms": 1.0}, "magnitude"),
    (FaultIncident, {"kind": "corrupt_wal", "replica": 0, "at_ms": 0.0,
                     "duration_ms": 1.0}, "magnitude"),
]


def _fault_ids(rows):
    return [f"{cls.__name__}.{base['kind']}.{field}"
            for cls, base, field in rows]


FAULT_IDS = _fault_ids(NAN_FAULT_FIELDS)
#: A record count has no infinite value: ``int(inf)`` would raise only
#: when the injector fired the event, mid-run.
INF_REJECTED_FIELDS = [row for row in NAN_FAULT_FIELDS
                       if row[1]["kind"] == "corrupt_wal"]
INF_ACCEPTED_FIELDS = [row for row in NAN_FAULT_FIELDS
                       if row not in INF_REJECTED_FIELDS]


@pytest.mark.parametrize("cls, base, field", NAN_FAULT_FIELDS,
                         ids=FAULT_IDS)
def test_nan_fault_value_rejected(cls, base, field):
    # A NaN time would otherwise fail mid-run, when the kernel refuses
    # the non-finite timeout; a NaN magnitude would run silently wrong.
    with pytest.raises(ValueError):
        cls(**base, **{field: NAN})


@pytest.mark.parametrize("cls, base, field", INF_ACCEPTED_FIELDS,
                         ids=_fault_ids(INF_ACCEPTED_FIELDS))
def test_infinite_fault_value_still_accepted(cls, base, field):
    # The NaN-safe guards keep every other bound where it was: inf was
    # legal in each of these fields and stays legal.
    assert getattr(cls(**base, **{field: float("inf")}), field) \
        == float("inf")


@pytest.mark.parametrize("cls, base, field", INF_REJECTED_FIELDS,
                         ids=_fault_ids(INF_REJECTED_FIELDS))
def test_infinite_record_count_rejected(cls, base, field):
    with pytest.raises(ValueError):
        cls(**base, **{field: float("inf")})


def test_nan_slowdown_rejected():
    env = Environment()
    server = DatabaseServer(env, Database(), make_uh(), ProfitLedger(),
                            StreamRegistry(0))
    with pytest.raises(ValueError):
        server.set_slowdown(NAN)
    assert server.slowdown == 1.0
    server.set_slowdown(float("inf"))
    assert server.slowdown == float("inf")
