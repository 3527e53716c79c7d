"""Metamorphic oracle: the model has no currency.

Multiplying every contract's ``qosmax`` and ``qodmax`` by ``c = 2**k``
must change nothing a scheduler decides: every percentage, response
time, counter and QUTS's whole ρ series stay bit-identical (Eq. 4 and
the routers use ratios of profit only), and every money figure — the
ledger's sums and both per-second bucket lists — is exactly ``c`` times
the unscaled one.  Scaling by a power of two is exact in binary floating
point, and ``uniform(a·c, b·c)`` draws exactly ``c·uniform(a, b)`` from
the same stream, so the relation is bit-for-bit, not approximate.

A scheduling or accounting rule with an absolute dollar constant in it
breaks the relation; ``test_relation_catches_an_absolute_profit_floor``
plants one (a $1 floor on ``qosmax``) and checks the oracle sees it.
"""

import copy

import pytest

from repro.cluster import QCAwareRouter, run_cluster_simulation
from repro.experiments.runner import run_simulation
from repro.experiments.scaleout import run_sharded_simulation
from repro.qc.contracts import QualityContract
from repro.qc.generator import QCFactory
from repro.scheduling import make_scheduler
from repro.workload.synthetic import StockWorkloadGenerator, WorkloadSpec

POLICIES = ("FIFO", "UH", "QH", "QUTS")
SHAPES = ("step", "linear")
KS = (-4, 3, 10)


@pytest.fixture(scope="module")
def trace():
    return StockWorkloadGenerator(WorkloadSpec().scaled(60_000.0),
                                  7).generate()


def scaled(factory, c):
    """``factory`` with both value ranges multiplied by ``c``."""
    out = copy.copy(factory)
    out.qosmax_range = tuple(c * x for x in factory.qosmax_range)
    out.qodmax_range = tuple(c * x for x in factory.qodmax_range)
    return out


class _FlooredQosmax:
    """A planted bug: no step contract offers less than $1 of QoS."""

    def __init__(self, factory):
        self.factory = factory

    def sample(self, rng, now=0.0):
        qc = self.factory.sample(rng, now)
        return QualityContract.step(max(qc.qos_max, 1.0), qc.rt_max,
                                    qc.qod_max, qc.uu_max,
                                    lifetime=qc.lifetime)


def bare(trace, policy, factory):
    result = run_simulation(make_scheduler(policy), trace, factory,
                            master_seed=1)
    ledger = result.ledger
    rho = result.rho_series
    invariant = {
        "percent": (result.qos_percent, result.qod_percent,
                    result.total_percent, ledger.qos_max_percent),
        "mean_response_time": result.mean_response_time,
        "mean_staleness": result.mean_staleness,
        "counters": result.counters,
        "lock_stats": result.lock_stats,
        "rho": None if rho is None else (list(rho.times), list(rho.values)),
    }
    money = {"sums": [ledger.qos_max_submitted, ledger.qod_max_submitted,
                      ledger.qos_gained, ledger.qod_gained],
             "submitted_per_second": ledger.submitted_per_second,
             "gained_per_second": ledger.gained_per_second}
    return invariant, money


def assert_scales(base, other, c):
    """``other`` is ``base`` run with contract values times ``c``: each
    is ``(scale-free facts, {name: money figures})``."""
    (invariant, money), (scaled_invariant, scaled_money) = base, other
    assert scaled_invariant == invariant
    assert scaled_money == {name: [c * x for x in values]
                            for name, values in money.items()}


@pytest.fixture(scope="module")
def unscaled(trace):
    """``bare`` at c = 1, once per (policy, shape)."""
    return {(policy, shape): bare(trace, policy,
                                  QCFactory.balanced(shape=shape))
            for policy in POLICIES for shape in SHAPES}


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("policy", POLICIES)
def test_bare_server_results_scale_with_contract_value(trace, unscaled,
                                                       policy, shape, k):
    base = unscaled[policy, shape]
    assert sum(base[1]["gained_per_second"]) > 0.0
    factory = scaled(QCFactory.balanced(shape=shape), 2.0 ** k)
    assert_scales(base, bare(trace, policy, factory), 2.0 ** k)


def test_replicated_portal_results_scale_with_contract_value(trace):
    # QCAwareRouter routes on qod_max / total_max: scale-free.
    def run(factory):
        result = run_cluster_simulation(
            3, lambda: make_scheduler("QUTS"), trace, factory,
            router=QCAwareRouter(), master_seed=1)
        return ({"percent": (result.qos_percent, result.qod_percent,
                             result.total_percent),
                 "mean_response_time": result.mean_response_time,
                 "counters": result.counters,
                 "routed": result.routed_counts},
                {f"replica{index}": [ledger.total_max, ledger.total_gained,
                                     *ledger.submitted_per_second,
                                     *ledger.gained_per_second]
                 for index, ledger in enumerate(result.replica_ledgers)})

    factory = QCFactory.balanced()
    c = 2.0 ** 5
    assert_scales(run(factory), run(scaled(factory, c)), c)


def test_sharded_portal_results_scale_with_contract_value(trace):
    def run(factory):
        result = run_sharded_simulation(
            2, lambda: make_scheduler("QUTS"), trace, factory,
            master_seed=1, replicas_per_shard=2)
        digest = result.digest()
        money = {"sums": [digest.pop("total_max"),
                          digest.pop("total_gained")]}
        digest["percent"] = (result.qos_percent, result.qod_percent,
                             result.total_percent)
        return digest, money

    factory = QCFactory.balanced()
    c = 2.0 ** -3
    assert_scales(run(factory), run(scaled(factory, c)), c)


def test_relation_catches_an_absolute_profit_floor(trace, unscaled):
    # At k = -4 balanced qosmax spans $0.625-$3.125, so the floor bites.
    factory = QCFactory.balanced()
    c = 2.0 ** -4
    base = unscaled["QUTS", "step"]
    assert_scales(base, bare(trace, "QUTS", scaled(factory, c)), c)
    with pytest.raises(AssertionError):
        assert_scales(base, bare(trace, "QUTS",
                                 _FlooredQosmax(scaled(factory, c))), c)
