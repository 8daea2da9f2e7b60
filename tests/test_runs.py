"""The budgeted evaluation recorder shared by every optimizer."""

import numpy as np
import pytest

from cellident.errors import OutOfBox
from cellident.identify import ParameterBox
from cellident.runs import Recorder, export_trace


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
        assert record.result().evaluations_used == 3

    def test_large_budget_counts_every_call(self, box, counted):
        objective = counted(lambda u: 1.0)
        record = Recorder(objective, box, budget=100)
        for _ in range(100):
            record(np.zeros(2))
        assert objective.count == 100
        trace = record.result().trace
        assert [index for index, _, _ in trace] == list(range(100))

    def test_records_physical_theta_and_unit_point(self, box):
        record = Recorder(lambda u: float(np.sum(u)), box, budget=2)
        unit = np.array([0.5, 0.5])
        assert record(unit) == 1.0
        unit[:] = 0.0                   # the recorder keeps its own copy
        index, theta, loss = record.result().trace[0]
        assert (index, loss) == (0, 1.0)
        np.testing.assert_allclose(theta, [2.0, 100.0])
        np.testing.assert_array_equal(record.points[0], [0.5, 0.5])

    def test_result_takes_the_first_minimum(self, box, tmp_path):
        losses = iter([3.0, 1.0, 2.0, 1.0])
        record = Recorder(lambda u: next(losses), box, budget=4)
        for u in ([0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [0.75, 0.0]):
            record(np.array(u))
        result = record.result(alpha=0.1)
        assert result.best_loss == 1.0
        np.testing.assert_array_equal(result.best_theta, result.trace[1][1])
        assert result.evaluations_used == 4
        assert [loss for _, _, loss in result.trace] == [3.0, 1.0, 2.0, 1.0]
        assert result.notes == {"alpha": 0.1}
        export_trace(result, box, tmp_path / "trace.csv")
        table = np.genfromtxt(tmp_path / "trace.csv", delimiter=",", names=True)
        np.testing.assert_array_equal(table["cum_best_V2"], [3.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(record.losses(), [3.0, 1.0, 2.0, 1.0])

    def test_trace_theta_is_the_per_point_denormalize(self, box):
        """One denormalize over every point gives each point's own bytes,
        on a log-scaled dimension and at the cube's faces."""
        points = np.random.default_rng(0).uniform(size=(500, 2))
        points[:4] = [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]
        record = Recorder(lambda u: 0.0, box, budget=len(points))
        for point in points:
            record(point)
        for (_, theta, _), point in zip(record.result().trace, points):
            assert theta.tobytes() == box.denormalize(point).tobytes()

    @pytest.mark.parametrize("outside", [[0.5, 1.0 + 1e-9], [-1e-9, 0.5],
                                         [np.nan, 0.5]])
    def test_point_outside_the_cube_fails_the_run(self, box, outside):
        record = Recorder(lambda u: 0.0, box, budget=3)
        for point in ([0.5, 0.5], outside, [0.25, 0.75]):
            record(np.array(point))
        with pytest.raises(OutOfBox, match="evaluation 1: "):
            record.result()
