"""Open-circuit potential tables: interpolation, validation, CSV round trip
and the packaged curves."""

import numpy as np
import pytest

from cellident.errors import DataError
from cellident.ocv import OcvCurve


class TestInterpolation:
    def test_exact_at_nodes(self):
        curve = OcvCurve(np.array([0.0, 0.5, 1.0]), np.array([4.0, 3.5, 3.0]))
        assert curve(0.0) == 4.0
        assert curve(0.5) == 3.5
        assert curve(1.0) == 3.0

    def test_linear_between_nodes(self):
        curve = OcvCurve(np.array([0.0, 1.0]), np.array([4.0, 3.0]))
        assert curve(0.25) == pytest.approx(3.75, abs=1e-15)

    def test_vectorized_queries(self):
        curve = OcvCurve(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        out = curve(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(out, [2.0, 1.5, 1.0])

    def test_query_outside_grid_is_an_error(self):
        curve = OcvCurve(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
        with pytest.raises(DataError, match="outside table range"):
            curve(1.01)
        with pytest.raises(DataError, match="outside table range"):
            curve(np.array([0.5, -0.01]))


class TestValidation:
    def test_grid_must_increase(self):
        with pytest.raises(DataError, match="strictly increasing"):
            OcvCurve(np.array([0.0, 0.5, 0.5, 1.0]), np.array([4, 3, 2, 1.0]))

    def test_grid_must_cover_unit_interval(self):
        with pytest.raises(DataError, match="cover"):
            OcvCurve(np.array([0.1, 1.0]), np.array([4.0, 3.0]))
        with pytest.raises(DataError, match="cover"):
            OcvCurve(np.array([0.0, 0.9]), np.array([4.0, 3.0]))

    def test_potential_must_not_increase(self):
        with pytest.raises(DataError, match="non-increasing"):
            OcvCurve(np.array([0.0, 0.5, 1.0]), np.array([3.0, 3.5, 3.2]))

    def test_constant_potential_is_allowed(self):
        curve = OcvCurve(np.array([0.0, 1.0]), np.array([3.0, 3.0]))
        assert curve(0.3) == 3.0

    def test_non_finite_potential_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            OcvCurve(np.array([0.0, 1.0]), np.array([4.0, np.nan]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_stoichiometry_rejected(self, bad):
        with pytest.raises(DataError, match="OCV stoichiometry contains "
                                            "non-finite values"):
            OcvCurve(np.array([0.0, bad, 1.0]), np.array([4.0, 3.5, 3.0]))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            OcvCurve(np.array([0.0, 0.5, 1.0]), np.array([4.0, 3.0]))

    def test_too_few_points(self):
        with pytest.raises(DataError, match="two points"):
            OcvCurve(np.array([0.0]), np.array([4.0]))


class TestPackagedCurves:
    @pytest.mark.parametrize("electrode", ["cathode", "anode"])
    def test_strictly_decreasing_and_covering(self, ocv_pair, electrode):
        curve = dict(zip(("cathode", "anode"), ocv_pair))[electrode]
        assert curve.x[0] == 0.0 and curve.x[-1] == 1.0
        assert np.all(np.diff(curve.u) < 0.0)

    def test_endpoint_values(self, ocv_pair):
        cath, an = ocv_pair
        assert cath(0.0) == pytest.approx(4.40)
        assert cath(1.0) == pytest.approx(3.90)
        assert an(0.0) == pytest.approx(1.40)
        assert an(1.0) == pytest.approx(0.30)


class TestCsv:
    def test_round_trip(self, tmp_path, ocv_pair):
        curve = ocv_pair[0]
        path = tmp_path / "ocv.csv"
        np.savetxt(path, np.column_stack([curve.x, curve.u]), delimiter=",",
                   header="x,U_volts", comments="", fmt="%.17g")
        loaded = OcvCurve.from_csv(path)
        np.testing.assert_array_equal(loaded.x, curve.x)
        np.testing.assert_array_equal(loaded.u, curve.u)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            OcvCurve.from_csv(tmp_path / "nope.csv")

    def test_blank_stoichiometry_cell(self, tmp_path):
        path = tmp_path / "ocv.csv"
        path.write_text("x,U_volts\n0.0,4.0\n,3.5\n1.0,3.0\n")
        with pytest.raises(DataError, match="non-finite"):
            OcvCurve.from_csv(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0.0,4.0\n1.0,3.0\n")
        with pytest.raises(DataError, match="columns"):
            OcvCurve.from_csv(path)
