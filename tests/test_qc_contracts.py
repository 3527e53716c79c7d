"""Unit tests for QualityContract composition and builders."""

import pytest

from repro.qc.contracts import (DEFAULT_LIFETIME_MS, CompositionMode,
                                QualityContract)
from repro.qc.functions import StepProfit, ZeroProfit


class TestBuilders:
    def test_step_builder_parameters(self):
        qc = QualityContract.step(10.0, 50.0, 20.0, 1.0)
        assert qc.qos_max == 10.0
        assert qc.qod_max == 20.0
        assert qc.total_max == 30.0
        assert qc.rt_max == 50.0
        assert qc.uu_max == 1.0
        assert qc.lifetime == DEFAULT_LIFETIME_MS

    def test_linear_builder_parameters(self):
        qc = QualityContract.linear(2.0, 50.0, 1.0, 2.0)
        assert qc.qos_max == 2.0
        assert qc.qod_max == 1.0
        # Figure 3: qos decays to 0 at rtmax, qod at uumax.
        qos, qod = qc.evaluate(25.0, 1.0)
        assert qos == pytest.approx(1.0)
        assert qod == pytest.approx(0.5)

    def test_zero_maxima_become_zero_profit(self):
        qc = QualityContract.step(0.0, 50.0, 0.0, 1.0)
        assert isinstance(qc.qos, ZeroProfit)
        assert isinstance(qc.qod, ZeroProfit)

    def test_free_contract(self):
        qc = QualityContract.free()
        assert qc.total_max == 0.0
        assert qc.evaluate(1.0, 1.0) == (0.0, 0.0)

    def test_invalid_lifetime(self):
        with pytest.raises(ValueError):
            QualityContract(ZeroProfit(), ZeroProfit(), lifetime=0.0)

    def test_nan_lifetime_rejected(self):
        with pytest.raises(ValueError, match="lifetime"):
            QualityContract(ZeroProfit(), ZeroProfit(),
                            lifetime=float("nan"))

    def test_infinite_lifetime_stays_legal(self):
        qc = QualityContract(ZeroProfit(), ZeroProfit(),
                             lifetime=float("inf"))
        assert qc.lifetime == float("inf")


class TestFigure2Example:
    """Figure 2: qosmax=$1, rtmax=50ms, qodmax=$2, uumax=1."""

    def test_step_example(self):
        qc = QualityContract.step(1.0, 50.0, 2.0, 1.0)
        assert qc.evaluate(30.0, 0.0) == (1.0, 2.0)   # fast & fresh
        assert qc.evaluate(60.0, 0.0) == (0.0, 2.0)   # late & fresh
        assert qc.evaluate(30.0, 1.0) == (1.0, 0.0)   # fast & stale
        assert qc.evaluate(60.0, 2.0) == (0.0, 0.0)   # late & stale


class TestFigure3Example:
    """Figure 3: qosmax=$2, rtmax=50ms, qodmax=$1, uumax=2 (linear)."""

    def test_linear_example(self):
        qc = QualityContract.linear(2.0, 50.0, 1.0, 2.0)
        qos, qod = qc.evaluate(0.0, 0.0)
        assert (qos, qod) == (2.0, 1.0)
        qos, qod = qc.evaluate(50.0, 2.0)
        assert (qos, qod) == (0.0, 0.0)


class TestComposition:
    def test_qos_independent_pays_qod_when_late(self):
        qc = QualityContract.step(10.0, 50.0, 20.0, 1.0,
                                  mode=CompositionMode.QOS_INDEPENDENT)
        qos, qod = qc.evaluate(100.0, 0.0)  # missed deadline, fresh data
        assert qos == 0.0
        assert qod == 20.0

    def test_qos_dependent_voids_qod_when_late(self):
        qc = QualityContract.step(10.0, 50.0, 20.0, 1.0,
                                  mode=CompositionMode.QOS_DEPENDENT)
        qos, qod = qc.evaluate(100.0, 0.0)
        assert qos == 0.0
        assert qod == 0.0

    def test_qos_dependent_pays_when_on_time(self):
        qc = QualityContract.step(10.0, 50.0, 20.0, 1.0,
                                  mode=CompositionMode.QOS_DEPENDENT)
        assert qc.evaluate(10.0, 0.0) == (10.0, 20.0)

    def test_custom_functions(self):
        qc = QualityContract(StepProfit(5.0, 10.0),
                             StepProfit(3.0, 2.0, inclusive=False))
        assert qc.qos_max == 5.0
        assert qc.uu_max == 2.0
        assert qc.evaluate(10.0, 1.9) == (5.0, 3.0)
