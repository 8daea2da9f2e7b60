"""Parameter container: loading, validation, and the J sign convention."""

import dataclasses
import json
import math
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellident.errors import DataError
from cellident.identify import ParameterBox
from cellident.params import (
    CellParameters,
    electrode_fields,
    load_parameter_file,
    reference_cell_path,
    write_csv,
    write_json,
)
from cellident.runs import Recorder, export_trace


class TestReferenceCell:
    def test_identified_parameter_values(self, params):
        assert params.k_p == 3e-11
        assert params.k_n == 4e-11
        assert params.D_e == 2.5e-10

    def test_operating_points_inside_tables(self, cell):
        params, ocv_p, ocv_n = cell
        x_p0 = params.c_p0 / params.c_max_p
        x_n0 = params.c_n0 / params.c_max_n
        assert 0.0 < x_n0 < x_p0 < 1.0
        # both tables answer at the initial stoichiometries
        assert ocv_p(x_p0) > ocv_n(x_n0)

    def test_specific_surface_area(self, params):
        assert params.a_s("p") == pytest.approx(3.0 * params.eps_am_p / params.R_p)
        assert params.a_s("n") == pytest.approx(3.0 * params.eps_am_n / params.R_n)
        with pytest.raises(ValueError):
            params.a_s("x")

    def test_j_overrides_from_file(self, params):
        """The packaged file flips the cathode J sign; the anode keeps the default."""
        j_p_default = 1.0 / (params.a_s("p") * params.L_p * params.A)
        j_n_default = 1.0 / (params.a_s("n") * params.L_n * params.A)
        assert params.J_p == pytest.approx(-j_p_default, rel=1e-12)
        assert params.J_n == pytest.approx(j_n_default, rel=1e-12)

    def test_j_computed_when_omitted(self, params):
        raw = params.to_dict()
        raw.pop("J_p")
        raw.pop("J_n")
        rebuilt = CellParameters.from_dict(raw)
        assert rebuilt.J_p == pytest.approx(
            1.0 / (rebuilt.a_s("p") * rebuilt.L_p * rebuilt.A), rel=1e-12)
        assert rebuilt.J_n == pytest.approx(
            1.0 / (rebuilt.a_s("n") * rebuilt.L_n * rebuilt.A), rel=1e-12)


class TestElectrodeFields:
    def test_names_map_to_the_electrode_fields(self, params):
        assert electrode_fields("p", "R", "c0", "c_max")(params) == (
            params.R_p, params.c_p0, params.c_max_p)
        assert electrode_fields("n", "c_e", "E_io", "J")(params) == (
            params.c_e_n, params.E_io_n, params.J_n)
        # one name: the bare value
        assert electrode_fields("n", "k")(params) == params.k_n

    def test_unknown_electrode_or_field(self, params):
        with pytest.raises(ValueError, match="electrode must be 'p' or 'n'"):
            electrode_fields("cathode", "R")
        with pytest.raises(AttributeError):
            electrode_fields("p", "radius")(params)


class TestValidation:
    def test_replace_revalidates(self, params):
        with pytest.raises(ValueError, match="k_p"):
            params.replace(k_p=0.0)

    def test_all_violations_reported_at_once(self, params):
        raw = params.to_dict()
        raw["k_p"] = -1.0
        raw["t_plus"] = 1.5
        raw["c_n0"] = -5.0
        with pytest.raises(DataError) as err:
            CellParameters.from_dict(raw)
        message = str(err.value)
        assert "k_p" in message
        assert "t_plus" in message
        assert "c_n0" in message

    @pytest.mark.parametrize("name", ["T", "T_ref", "R_gas"])
    def test_zero_in_the_arrhenius_factor_is_a_value_error(self, params,
                                                           name):
        with pytest.raises(ValueError, match=re.escape(
                "exp((1/T_ref - 1/T) E_io_p/R_gas) F must be finite and "
                "non-zero")):
            params.replace(**{name: 0.0})

    def test_unknown_key_rejected(self, params):
        raw = params.to_dict()
        raw["surprise"] = 1.0
        with pytest.raises(DataError, match="surprise"):
            CellParameters.from_dict(raw)

    def test_missing_key_rejected(self, params):
        raw = params.to_dict()
        raw.pop("kappa")
        with pytest.raises(DataError, match="kappa"):
            CellParameters.from_dict(raw)

    @pytest.mark.parametrize("key, value", [
        ("R_c", True), ("R_c", "0.01"), ("k_p", None), ("F", None),
        ("c_p0", [1.0])])
    def test_non_number_rejected(self, params, key, value):
        raw = {**params.to_dict(), key: value}
        with pytest.raises(DataError, match=f"cell parameter {key} must be a finite number"):
            CellParameters.from_dict(raw)

    _junk = st.one_of(
        st.booleans(), st.none(), st.text(max_size=4),
        st.lists(st.floats(), max_size=2),
        st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]))

    @settings(max_examples=300, deadline=None, database=None)
    @given(data=st.data())
    def test_one_junk_field_is_a_data_error_naming_it(self, params, data):
        """Any one field holding a bool, string, null, list or non-finite
        number: a cell whose every field is finite (a null J_p or J_n is
        computed) or a DataError naming that field, never another error."""
        raw = params.to_dict()
        name = data.draw(st.sampled_from(sorted(raw)))
        raw[name] = data.draw(self._junk)
        try:
            cell = CellParameters.from_dict(raw)
        except DataError as exc:
            assert f"cell parameter {name} " in str(exc)
            return
        assert raw[name] is None and name in ("J_p", "J_n")
        for field, value in cell.to_dict().items():
            assert type(value) is float and math.isfinite(value), field

    def test_null_j_is_computed(self, params):
        rebuilt = CellParameters.from_dict({**params.to_dict(), "J_n": None})
        assert rebuilt.J_n == params.J_n

    @pytest.mark.parametrize("key", ["R_n", "eps_am_n"])
    def test_zero_under_a_computed_j_is_a_data_error(self, params, key):
        raw = {**params.to_dict(), key: 0.0, "J_n": None}
        with pytest.raises(DataError, match=f"{key} must"):
            CellParameters.from_dict(raw)

    def test_round_trip(self, params):
        rebuilt = CellParameters.from_dict(params.to_dict())
        assert rebuilt == params

    def test_replace_keeps_unrelated_fields(self, params):
        changed = params.replace(k_p=5e-11)
        assert changed.k_p == 5e-11
        assert changed.k_n == params.k_n
        assert changed.J_p == params.J_p

    _theta_values = st.one_of(
        st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf,
                         5e-324]),
        st.floats(min_value=5e-324, max_value=1e300), st.floats())

    @settings(max_examples=300, deadline=None)
    @given(k_p=_theta_values, k_n=_theta_values, D_e=_theta_values)
    def test_with_theta_is_replace(self, params, k_p, k_n, D_e):
        """Field for field the copy ``replace`` makes, and for an invalid
        theta (zero, negative, NaN, several at once) its exact message."""
        try:
            want = params.replace(k_p=k_p, k_n=k_n, D_e=D_e)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                params.with_theta(k_p, k_n, D_e)
            assert str(got.value) == str(exc)
            return
        got = params.with_theta(k_p, k_n, D_e)
        assert type(got) is CellParameters and got is not params
        for f in dataclasses.fields(CellParameters):
            assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
        assert got == want
        assert (params.k_p, params.k_n, params.D_e) == (3e-11, 4e-11, 2.5e-10)


class TestParameterFile:
    def test_reference_file_round_trip(self, tmp_path, params):
        packaged = reference_cell_path().parent
        shutil.copy(packaged / "ocv_cathode.csv", tmp_path / "cath.csv")
        shutil.copy(packaged / "ocv_anode.csv", tmp_path / "an.csv")
        (tmp_path / "cell.json").write_text(json.dumps(
            {**params.to_dict(), "ocv_cathode": "cath.csv", "ocv_anode": "an.csv"}))
        loaded, p_path, n_path = load_parameter_file(tmp_path / "cell.json")
        assert loaded == params
        assert p_path == (tmp_path / "cath.csv").resolve()
        assert n_path == (tmp_path / "an.csv").resolve()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_parameter_file(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_parameter_file(path)

    def test_non_object_json(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DataError, match="JSON object"):
            load_parameter_file(path)

    def test_missing_ocv_keys(self, tmp_path, params):
        doc = params.to_dict()
        doc["ocv_cathode"] = "cath.csv"   # anode key left out
        path = tmp_path / "cell.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="ocv_anode"):
            load_parameter_file(path)

    @pytest.mark.parametrize("value", [5, None, ["cath.csv"]])
    def test_ocv_key_must_name_a_file(self, tmp_path, params, value):
        path = tmp_path / "cell.json"
        path.write_text(json.dumps({**params.to_dict(), "ocv_cathode": value,
                                    "ocv_anode": "an.csv"}))
        with pytest.raises(DataError, match="ocv_cathode must be a file name"):
            load_parameter_file(path)

    @staticmethod
    def _write_cell(tmp_path, params, **changes):
        path = tmp_path / "cell.json"
        path.write_text(json.dumps({**params.to_dict(), **changes,
                                    "ocv_cathode": "cath.csv",
                                    "ocv_anode": "an.csv"}))
        return path

    def test_invalid_values_said_once_naming_the_file(self, tmp_path, params):
        c_p0 = 2.0 * params.c_max_p
        path = self._write_cell(tmp_path, params, c_p0=c_p0)
        with pytest.raises(DataError) as err:
            load_parameter_file(path)
        assert str(err.value) == (
            f"parameter file {path}: invalid cell parameters: c_p0 must lie "
            f"in (0, c_max_p), got {c_p0}")

    def test_key_errors_name_the_file(self, tmp_path, params):
        path = self._write_cell(tmp_path, params, surprise=1.0)
        with pytest.raises(DataError, match=re.escape(
                f"parameter file {path}: unknown cell parameter keys: "
                "['surprise']")):
            load_parameter_file(path)

    @pytest.mark.parametrize("T, got", [(250.0, "0.0"), (350.0, "inf")],
                             ids=["cold", "hot"])
    def test_arrhenius_factor_checked_at_load(self, tmp_path, params, T, got):
        """At E_io_p = 1e8 J/mol the cathode's Arrhenius factor underflows
        to 0 at 250 K and overflows at 350 K: the file is rejected when it
        loads, not at the first simulation."""
        path = self._write_cell(tmp_path, params, T=T, E_io_p=1e8)
        with pytest.raises(DataError, match=re.escape(
                f"parameter file {path}: invalid cell parameters: "
                f"exp((1/T_ref - 1/T) E_io_p/R_gas) F must be finite and "
                f"non-zero, got {got}")) as err:
            load_parameter_file(path)
        assert "E_io_n" not in str(err.value)

    def test_packaged_file_is_loadable(self, cell):
        params, ocv_p, ocv_n = cell
        assert reference_cell_path().exists()
        assert np.isfinite(ocv_p(0.5))
        assert np.isfinite(ocv_n(0.5))


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 1e308,
                np.inf, -np.inf, np.nan, 1.0 / 3.0, -2.5, 123456789.123456789]


class TestWriters:
    """``write_csv`` and ``write_json`` give the bytes of the writers they
    replaced: ``np.savetxt``, the f-string loops and ``json.dumps``."""

    @pytest.mark.parametrize("spec", [".12g", ".9g"])
    def test_float_columns_are_savetxt_bytes(self, tmp_path, spec):
        rng = np.random.default_rng(len(spec))
        table = np.column_stack([
            _EDGE_FLOATS,
            rng.permutation(_EDGE_FLOATS),
            rng.normal(size=len(_EDGE_FLOATS)) * 10.0 ** rng.uniform(
                -300, 300, size=len(_EDGE_FLOATS))])
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        np.savetxt(want, table, delimiter=",", comments="", header="a,b,c",
                   fmt=f"%{spec}")
        write_csv(got, dict(zip("abc", table.T)), spec=spec)
        assert got.read_bytes() == want.read_bytes()

    def test_int_bool_none_and_str_cells_are_the_f_string_bytes(self, tmp_path):
        rows = [{"method": "bo", "rep": 0, "failed": False, "loss": 0.125,
                 "evaluations": 50},
                {"method": "gd", "rep": 12345678901234, "failed": True,
                 "loss": None, "evaluations": None},
                {"method": "pso", "rep": -3, "failed": False, "loss": 1e-300,
                 "evaluations": 7}]
        want = "method,rep,failed,loss,evaluations\n" + "".join(
            f"{r['method']},{r['rep']},{int(r['failed'])},"
            f"{'' if r['loss'] is None else format(r['loss'], '.12g')},"
            f"{r['evaluations'] if r['evaluations'] is not None else ''}\n"
            for r in rows)
        path = tmp_path / "rows.csv"
        write_csv(path, {key: [r[key] for r in rows] for key in rows[0]})
        assert path.read_bytes() == want.encode()

    def test_per_column_spec_and_numpy_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"n": np.arange(3), "ok": np.array([True, False, True]),
                         "t": [1 / 3] * 3, "x": np.full(3, 2 / 3)},
                  spec={"t": ".6g"})
        assert path.read_bytes() == (b"n,ok,t,x\n"
                                     b"0,1,0.333333,0.666666666667\n"
                                     b"1,0,0.333333,0.666666666667\n"
                                     b"2,1,0.333333,0.666666666667\n")

    def test_columns_of_different_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {"a": [1.0, 2.0], "b": [1.0]})

    @pytest.mark.parametrize("names", [("a",), ("a", "b", "c")],
                             ids=["1d", "3d"])
    def test_export_trace_is_the_f_string_bytes(self, tmp_path, names):
        n = len(names)
        box = ParameterBox(names=names, lower=np.full(n, 1e-3),
                           upper=np.full(n, 7.0), scales=("log",) * n)
        rng = np.random.default_rng(n)
        losses = iter(rng.uniform(0.0, 2.0, size=20) ** 7)
        record = Recorder(lambda u: next(losses), box, budget=20)
        for _ in range(20):
            record(rng.uniform(size=n))
        result = record.result()
        cum = np.minimum.accumulate([loss for _, _, loss in result.trace])
        want = f"eval_index,{','.join(names)},loss_V2,cum_best_V2\n" + "".join(
            f"{idx},{','.join(f'{v:.12g}' for v in np.atleast_1d(theta))},"
            f"{loss:.12g},{best:.12g}\n"
            for (idx, theta, loss), best in zip(result.trace, cum))
        path = tmp_path / "trace.csv"
        export_trace(result, box, path)
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("obj", [
        {"b": [1, 2.5, None], "a": {"z": "x", "y": True}},
        {"meta": {"nan": float("nan"), "inf": -float("inf")}, "results": {}},
        {},
    ])
    def test_write_json_is_the_dumps_bytes(self, tmp_path, obj):
        path = tmp_path / "doc.json"
        write_json(path, obj)
        assert path.read_bytes() == (
            json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
