"""The budgeted evaluation recorder shared by every optimizer."""

import numpy as np
import pytest

from cellident.identify import ParameterBox
from cellident.runs import Recorder


@pytest.fixture()
def box():
    return ParameterBox(names=("a", "b"), lower=np.array([1.0, 10.0]),
                        upper=np.array([3.0, 1000.0]),
                        scales=("linear", "log"))


class TestRecorder:
    def test_counts_and_enforces_budget(self, box, counted):
        objective = counted(lambda u: 1.0)
        record = Recorder(objective, box, budget=3)
        for _ in range(3):
            record(np.zeros(2))
        assert objective.count == 3
        assert record.remaining == 0
        with pytest.raises(RuntimeError,
                           match=r"evaluation budget \(3\) exceeded"):
            record(np.zeros(2))
        assert objective.count == 3   # refused before the objective ran
        assert len(record.trace) == 3

    def test_large_budget_counts_every_call(self, box, counted):
        objective = counted(lambda u: 1.0)
        record = Recorder(objective, box, budget=100)
        for _ in range(100):
            record(np.zeros(2))
        assert objective.count == 100
        assert [index for index, _, _ in record.trace] == list(range(100))

    def test_records_physical_theta_and_unit_point(self, box):
        record = Recorder(lambda u: float(np.sum(u)), box, budget=2)
        unit = np.array([0.5, 0.5])
        assert record(unit) == 1.0
        unit[:] = 0.0                   # the recorder keeps its own copy
        index, theta, loss = record.trace[0]
        assert (index, loss) == (0, 1.0)
        np.testing.assert_allclose(theta, [2.0, 100.0])
        np.testing.assert_array_equal(record.points[0], [0.5, 0.5])

    def test_result_takes_the_first_minimum(self, box):
        losses = iter([3.0, 1.0, 2.0, 1.0])
        record = Recorder(lambda u: next(losses), box, budget=4)
        for u in ([0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0]):
            record(np.array(u))
        result = record.result("gd", alpha=0.1)
        assert result.best_loss == 1.0
        np.testing.assert_array_equal(result.best_theta, record.trace[1][1])
        assert result.evaluations_used == 4
        assert result.trace == tuple(record.trace)
        assert result.method == "gd" and result.notes == {"alpha": 0.1}
        np.testing.assert_array_equal(result.cumulative_best(),
                                      [3.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(record.losses(), [3.0, 1.0, 2.0, 1.0])
