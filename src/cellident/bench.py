"""Benchmark orchestration: synthetic datasets, budgeted optimizer sweeps,
and deterministic reports.

Seeding rule (documented contract): the master seed feeds a SeedSequence
whose children are, in order, [profile-generation, measurement-noise,
repetition 0, repetition 1, ...].  Every method in repetition r receives the
same child seed, so GD's random start, PSO's first particle, and BO's
initial design are paired across methods — the ordering comparison is
paired by construction.

Report layout: the ``results`` section contains only deterministic content
(rows, aggregates, config echo) and is what the byte-identity guarantee
covers; wall-clock data lives in ``meta``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .baselines import (
    GdConfig,
    PsoConfig,
    gradient_descent,
    min_budget,
    pso,
    random_search,
)
from .bayesopt import BoRunConfig, run_bo
from .ecm import bulk_concentration, simulate
from .errors import ConfigError, DataError
from .identify import (
    THETA_NAMES,
    IdentificationDataset,
    ParameterBox,
    VoltageFitObjective,
    check_box_steps,
    default_box,
    save_dataset,
)
from .ocv import OcvCurve
from .params import (
    ELECTRODES,
    CellParameters,
    check_keys,
    electrode_fields,
    is_json_number,
    json_number,
    load_parameter_file,
    read_json_object,
    reference_cell_path,
    write_csv,
    write_json,
)
from .profiles import (NOISE_BASE_PERIOD_S, CurrentProfile,
                       noise_cycle_profile, staircase_profile)
from .runs import OptimizationResult, export_trace

SOC_HARD_WINDOW = (0.05, 0.95)   # violation is an error
METHODS = ("bo", "gd", "pso")
MAX_PROFILE_SAMPLES = 10_000_000   # at about 100 B a sample in a run: 1 GB


def one_c_current(params: CellParameters) -> float:
    """1C in amps: limiting-electrode capacity over one hour."""
    capacities = []
    for electrode in ELECTRODES:
        eps_am, L, c_max = electrode_fields(electrode, "eps_am", "L", "c_max")(params)
        capacities.append(params.F * eps_am * L * params.A * c_max)
    return min(capacities) / 3600.0


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class ProfileSpec:
    """One excitation waveform request."""

    kind: str            # "rcid-like" or "drive-cycle-like"
    duration_s: float
    dt_s: float

    def __post_init__(self):
        if self.kind not in ("rcid-like", "drive-cycle-like"):
            raise ConfigError(f"unknown profile kind {self.kind!r}")
        if not (math.isfinite(self.dt_s) and self.dt_s > 0.0):
            raise ConfigError(f"profile dt_s must be finite and > 0, got {self.dt_s}")
        if not (math.isfinite(self.duration_s)
                and self.duration_s >= 100.0 * self.dt_s):
            raise ConfigError("profile duration_s must be finite and at least "
                              f"100*dt_s, got {self.duration_s}")
        # round(duration / dt) + 1 samples, plus a drive cycle's 300-s tile
        tile = NOISE_BASE_PERIOD_S if self.kind == "drive-cycle-like" else 0.0
        samples = 1.0 + (self.duration_s + tile) / self.dt_s   # may be inf
        if samples <= 2 * MAX_PROFILE_SAMPLES:
            samples = 1 + round(self.duration_s / self.dt_s) + round(tile / self.dt_s)
        if samples > MAX_PROFILE_SAMPLES:
            raise ConfigError(f"profile needs {samples:,.0f} samples, above the "
                              f"cap of {MAX_PROFILE_SAMPLES:,}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ProfileSpec":
        known = [f.name for f in dataclasses.fields(cls)]
        check_keys(raw, "profile-spec", known, known, ConfigError)
        return cls(kind=raw["kind"],
                   duration_s=json_number(raw, "duration_s", error=ConfigError),
                   dt_s=json_number(raw, "dt_s", error=ConfigError))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full benchmark specification (JSON-mirrored field for field)."""

    box: ParameterBox
    parameter_file: str | None = None        # None -> packaged reference cell
    methods: tuple[str, ...] = METHODS
    budget: int = 50
    repetitions: int = 10
    noise_sigma_v: float = 0.0
    master_seed: int = 20260817
    s0: int = 10
    train_profiles: tuple[ProfileSpec, ...] = (
        ProfileSpec(kind="rcid-like", duration_s=3600.0, dt_s=1.0),)
    test_profiles: tuple[ProfileSpec, ...] = (
        ProfileSpec(kind="drive-cycle-like", duration_s=1800.0, dt_s=1.0),)

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.budget < 2:
            raise ConfigError("budget must be >= 2")
        if not self.methods:
            raise ConfigError("methods must be non-empty")
        bad = [m for m in self.methods if m not in METHODS + ("random",)]
        if bad:
            raise ConfigError(f"unknown methods: {bad}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(
                f"methods must be distinct, got {list(self.methods)}")
        for method in self.methods:
            need = min_budget(method, self.box.n)
            if self.budget < need:
                raise ConfigError(f"budget {self.budget} is below the "
                                  f"{method} minimum of {need} evaluations")
        if not (math.isfinite(self.noise_sigma_v) and self.noise_sigma_v >= 0.0):
            raise ConfigError("noise_sigma_v must be finite and >= 0, got "
                              f"{self.noise_sigma_v}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 1 <= self.s0 <= self.budget:
            raise ConfigError("need 1 <= s0 <= budget")
        if not self.train_profiles or not self.test_profiles:
            raise ConfigError("train and test profile lists must be non-empty")
        if self.box.names != THETA_NAMES:
            raise ConfigError(f"box names must be {list(THETA_NAMES)}, got "
                              f"{list(self.box.names)}")
        if np.any(self.box.lower <= 0.0):
            raise ConfigError("box lower bounds must be > 0, got "
                              f"{self.box.lower.tolist()}")

    def to_dict(self) -> dict:
        fields = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {**fields, "box": self.box.to_dict(), "methods": list(self.methods),
                "train_profiles": [p.to_dict() for p in self.train_profiles],
                "test_profiles": [p.to_dict() for p in self.test_profiles]}

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The config a JSON object describes; ConfigError on an unknown
        key, a value of the wrong JSON type or a value out of range."""
        check_keys(raw, "config", [f.name for f in dataclasses.fields(cls)],
                   error=ConfigError)
        for key, types, what in (
                ("parameter_file", (str, type(None)), "a string or null"),
                ("methods", list, "a list of method names")):
            if key in raw and not isinstance(raw[key], types):
                raise ConfigError(f"{key} must be {what}, got {raw[key]!r}")
        kwargs = {key: json_number(raw, key, kind, ConfigError) for key, kind in
                  (("budget", int), ("repetitions", int), ("s0", int),
                   ("master_seed", int), ("noise_sigma_v", float)) if key in raw}
        try:
            kwargs["box"] = (ParameterBox.from_dict(raw["box"]) if "box" in raw
                             else default_box())
            if "parameter_file" in raw:
                kwargs["parameter_file"] = raw["parameter_file"]
            if "methods" in raw:
                kwargs["methods"] = tuple(raw["methods"])
            for key in ("train_profiles", "test_profiles"):
                if key in raw:
                    kwargs[key] = tuple(ProfileSpec.from_dict(p)
                                        for p in raw[key])
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json_object(Path(path), "config file",
                                              ConfigError))


def default_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(box=default_box())
    return dataclasses.replace(base, **overrides) if overrides else base


def resolve_cell(config: ExperimentConfig) -> tuple[CellParameters, OcvCurve, OcvCurve, dict]:
    """Load the configured (or packaged) cell and its OCV tables.

    The provenance names the parameter file as the config gave it, or as
    ``packaged:<name>``, so the results body does not depend on where the
    package or the working directory lives; the hashes pin the content.
    """
    if config.parameter_file:
        path, label = Path(config.parameter_file), config.parameter_file
    else:
        path = reference_cell_path()
        label = f"packaged:{path.name}"
    params, ocv_p_path, ocv_n_path = load_parameter_file(path)
    ocv_p = OcvCurve.from_csv(ocv_p_path)
    ocv_n = OcvCurve.from_csv(ocv_n_path)
    provenance = {
        "parameter_file": label,
        "parameter_sha256": _sha256(path),
        "ocv_cathode_sha256": _sha256(ocv_p_path),
        "ocv_anode_sha256": _sha256(ocv_n_path),
    }
    return params, ocv_p, ocv_n, provenance


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# synthetic data

def generate_profile(kind: str, duration: float, dt: float, seed,
                     params: CellParameters) -> CurrentProfile:
    """Build an excitation and verify it respects the SOC window.

    The bulk stoichiometry of both electrodes must stay inside
    SOC_HARD_WINDOW under the given cell's capacity, else ConfigError.
    The request is checked as a ProfileSpec first.
    """
    ProfileSpec(kind, duration, dt)
    i_1c = one_c_current(params)
    if kind == "rcid-like":
        profile = staircase_profile(i_1c, dt=dt, duration=duration)
    else:
        profile = noise_cycle_profile(i_1c, seed, dt=dt, duration=duration)

    lo, hi = SOC_HARD_WINDOW
    for electrode in ELECTRODES:
        x = (bulk_concentration(params, electrode, profile)
             / electrode_fields(electrode, "c_max")(params))
        if np.any(x <= lo) or np.any(x >= hi):
            raise ConfigError(
                f"profile kind {kind!r} drives electrode {electrode} bulk "
                f"stoichiometry to {x[np.argmax(np.abs(x - 0.5))]:.3f}, outside "
                f"({lo}, {hi})")
    return profile


def _profile_names(n_train: int, n_test: int) -> tuple[str, ...]:
    """The config keys that messages name profiles by."""
    return (*(f"train_profiles[{i}]" for i in range(n_train)),
            *(f"test_profiles[{j}]" for j in range(n_test)))


def generate_synthetic_dataset(
    truth: CellParameters, ocv_p: OcvCurve, ocv_n: OcvCurve,
    train_profiles: list[CurrentProfile], test_profiles: list[CurrentProfile],
    noise_sigma_v: float, seed,
) -> tuple[IdentificationDataset, IdentificationDataset, dict]:
    """Simulate the truth cell and add seeded Gaussian measurement noise.

    Returns (train, test, meta); meta records the truth parameters so
    recovered thetas can be scored.  Profiles are named as in a config,
    e.g. ``train_profiles[0]``, in the datasets and in the ConfigError for
    a profile the truth cell cannot simulate.
    """
    if not (math.isfinite(noise_sigma_v) and noise_sigma_v >= 0.0):
        raise ConfigError(f"noise_sigma_v must be finite and >= 0, got "
                          f"{noise_sigma_v}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    profiles = (*train_profiles, *test_profiles)
    n = len(train_profiles)
    names = _profile_names(n, len(test_profiles))
    voltages = []
    for name, profile, child in zip(names, profiles, ss.spawn(len(profiles))):
        try:
            clean = simulate(truth, ocv_p, ocv_n, profile)
        except (ConfigError, DataError) as exc:
            raise ConfigError(f"the cell cannot simulate {name} at dt = "
                              f"{profile.dt:g} s: {exc}") from exc
        noise = np.random.default_rng(child).normal(0.0, noise_sigma_v,
                                                    size=clean.size)
        voltages.append(clean + noise)
    train = IdentificationDataset(profiles[:n], tuple(voltages[:n]), names[:n])
    test = IdentificationDataset(profiles[n:], tuple(voltages[n:]), names[n:])
    meta = {
        "truth": {"k_p": truth.k_p, "k_n": truth.k_n, "D_e": truth.D_e},
        "noise_sigma_v": noise_sigma_v,
    }
    return train, test, meta


def build_dataset(config: ExperimentConfig, params: CellParameters,
                  ocv_p: OcvCurve, ocv_n: OcvCurve
                  ) -> tuple[IdentificationDataset, IdentificationDataset, dict]:
    """The configured train/test data, derived from the master seed.

    The first two children of the master SeedSequence seed the profiles and
    the measurement noise (see the module docstring); returns (train, test,
    meta) as ``generate_synthetic_dataset`` does.  Each ConfigError names
    its profile, as ``train_profiles[i]`` or ``test_profiles[j]``.
    """
    profile_ss, noise_ss = np.random.SeedSequence(config.master_seed).spawn(2)
    specs = config.train_profiles + config.test_profiles
    n_train = len(config.train_profiles)
    profiles = []
    for name, s, child in zip(_profile_names(n_train, len(specs) - n_train),
                              specs, profile_ss.spawn(len(specs))):
        try:
            profiles.append(generate_profile(s.kind, s.duration_s, s.dt_s,
                                             child, params))
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return generate_synthetic_dataset(
        params, ocv_p, ocv_n, profiles[:n_train], profiles[n_train:],
        config.noise_sigma_v, noise_ss)


# ---------------------------------------------------------------------------
# benchmark protocol

@dataclass(frozen=True)
class BenchmarkReport:
    """Deterministic results body plus non-deterministic meta."""

    results: dict
    meta: dict = field(default_factory=dict)

    def body_bytes(self) -> bytes:
        """Canonical serialization of the deterministic section."""
        return json.dumps(self.results, sort_keys=True,
                          separators=(",", ":")).encode()

    def save(self, path) -> Path:
        return write_json(path, {"meta": self.meta, "results": self.results})

    @classmethod
    def load(cls, path) -> "BenchmarkReport":
        path = Path(path)
        doc = read_json_object(path, "report")
        if not (isinstance(doc.get("results"), dict)
                and isinstance(doc.get("meta", {}), dict)):
            raise DataError(f"report {path}: results and meta must be objects")
        report = cls(results=doc["results"], meta=doc.get("meta", {}))
        times = report.meta.get("time_stats", {})
        if not (isinstance(times, dict) and all(
                isinstance(t, dict) and is_json_number(t.get("mean"))
                and is_json_number(t.get("var")) for t in times.values())):
            raise DataError(f"report {path}: meta.time_stats must be an object "
                            "holding per method finite numbers mean and var")
        stored = report.meta.get("body_sha256")
        if stored and stored != hashlib.sha256(report.body_bytes()).hexdigest():
            raise DataError(f"report {path}: meta.body_sha256 does not match "
                            "the results section")
        try:
            report.validate()
        except DataError as exc:
            raise DataError(f"report {path}: {exc}") from exc
        return report

    def validate(self) -> None:
        """Check the config echo and the row values the exports read, then
        recompute aggregates from raw rows; DataError naming the field."""
        rows = self.results.get("rows")
        aggregates = self.results.get("aggregates")
        if not (isinstance(rows, list) and isinstance(aggregates, dict) and all(
                isinstance(row, dict) and _ROW_VALUES.keys() <= row.keys() for row in rows)):
            raise DataError("rows must be a list of objects with keys "
                            f"{sorted(_ROW_VALUES)} and aggregates an object")
        for i, row in enumerate(rows):
            for key, (ok, what) in _ROW_VALUES.items():
                if not ok(row[key]):
                    raise DataError(f"rows[{i}].{key} must be {what}, got {row[key]!r}")
        try:
            methods = ExperimentConfig.from_dict(self.results.get("config")).methods
        except (ConfigError, TypeError) as exc:   # TypeError: not an object
            raise DataError(f"config must be a valid config object: {exc}") from exc
        recomputed = _aggregate_rows(rows)
        for method, stats in recomputed.items():
            stored = aggregates.get(method)
            if not isinstance(stored, dict):
                raise DataError(f"aggregates.{method} must be an object, got {stored!r}")
            for key, value in stats.items():
                got = stored.get(key)
                ok = (got is None and value is None) or (
                    is_json_number(got) and value is not None
                    and np.isclose(got, value, rtol=1e-12, atol=1e-15))
                if not ok:
                    raise DataError(
                        f"aggregate {method}.{key} = {got} does not match "
                        f"rows (expected {value})")
        if not set(aggregates) == set(recomputed) == set(methods):
            raise DataError("aggregates, rows and config.methods list "
                            "different methods")


_NUMBER_OR_NULL = (lambda v: v is None or is_json_number(v), "a finite number or null")
_ROW_VALUES = {   # every row key: the check of its value, and its wording
    "method": (lambda v: isinstance(v, str), "a string"),
    "rep": (lambda v: is_json_number(v, int), "an integer"),
    "failed": (lambda v: isinstance(v, bool), "true or false"),
    "train_loss_V2": _NUMBER_OR_NULL, "test_loss_V2": _NUMBER_OR_NULL,
    "evaluations": (lambda v: v is None or is_json_number(v, int),
                    "an integer or null"),
    "theta": (lambda v: v is None or (isinstance(v, dict) and all(
        is_json_number(v.get(n)) and v[n] > 0.0 for n in THETA_NAMES)),
        f"null or an object of positive finite numbers {', '.join(THETA_NAMES)}"),
}


def _mean_var(values: np.ndarray) -> tuple[float, float]:
    """Mean and unbiased variance, 0.0 for one value."""
    return (float(np.mean(values)),
            float(np.var(values, ddof=1)) if values.size > 1 else 0.0)


def _aggregate_rows(rows) -> dict:
    methods = sorted({row["method"] for row in rows})
    out = {}
    for method in methods:
        ok_rows = [r for r in rows if r["method"] == method and not r["failed"]]
        stats = {}
        for col, key in (("train_loss_V2", "train"), ("test_loss_V2", "test")):
            vals = np.array([r[col] for r in ok_rows], dtype=float)
            stats[f"{key}_mean"], stats[f"{key}_var"] = (
                _mean_var(vals) if vals.size else (None, None))
        stats["n_ok"] = len(ok_rows)
        out[method] = stats
    return out


def run_method(method: str, objective, box: ParameterBox, budget: int,
               seed, s0: int) -> OptimizationResult:
    """One budgeted run of ``method`` on a unit-cube objective."""
    if method == "bo":
        return run_bo(objective, BoRunConfig(box=box, budget=budget,
                                             seed=seed, s0=s0))
    if method == "gd":
        return gradient_descent(objective, box,
                                GdConfig(budget=budget, seed=seed))
    if method == "pso":
        return pso(objective, box, PsoConfig(budget=budget, seed=seed))
    if method == "random":
        return random_search(objective, box, budget, seed)
    raise ConfigError(f"unknown method {method!r}")


def build_objectives(params: CellParameters, ocv_p: OcvCurve, ocv_n: OcvCurve,
                     box: ParameterBox, train: IdentificationDataset,
                     test: IdentificationDataset) -> list[VoltageFitObjective]:
    """The train and test objectives.  Both are built, so one DataError
    names every file of either dataset the model cannot simulate; the
    ConfigError of a box too wide for a profile's step is raised at once."""
    objectives, causes = [], []
    for dataset in (train, test):
        try:
            objectives.append(
                VoltageFitObjective(params, ocv_p, ocv_n, box, dataset))
        except DataError as exc:
            causes.append(str(exc))
    if causes:
        raise DataError("no theta can fit data the model cannot simulate: "
                        + "; ".join(causes))
    return objectives


def fit_and_score(method: str, train_objective: VoltageFitObjective,
                  test_objective: VoltageFitObjective, budget: int, seed,
                  s0: int) -> tuple[dict, OptimizationResult]:
    """Run ``method`` on ``train_objective``, score its best theta on
    ``test_objective``; returns a benchmark row's result fields and the run.

    Data the model cannot simulate at any theta never gets here: the
    objectives' constructors raise DataError for it.
    """
    box = train_objective.box
    result = run_method(method, train_objective.unit, box, budget, seed, s0)
    return {"train_loss_V2": result.best_loss,
            "test_loss_V2": test_objective(result.best_theta).loss,
            "evaluations": result.evaluations_used,
            "theta": dict(zip(box.names, map(float, result.best_theta))),
            }, result


def run_benchmark(config: ExperimentConfig,
                  out_dir=None) -> BenchmarkReport:
    """Full protocol: data generation, method x repetition sweep, report.

    A box too wide for a configured step, or whose every D_e puts it under
    the step floor, fails before any data is made, and data the model
    cannot simulate before any run or file.
    Per-repetition failures are recorded with a failure flag and excluded
    from aggregates; the sweep never aborts.  When out_dir is given, every
    file ``export_report`` writes, every optimizer trace and the dataset
    are written there, all from the data derived once here.
    """
    t_start = time.perf_counter()
    params, ocv_p, ocv_n, provenance = resolve_cell(config)
    check_box_steps(params, config.box, zip(
        _profile_names(len(config.train_profiles), len(config.test_profiles)),
        [s.dt_s for s in config.train_profiles + config.test_profiles]))
    train_ds, test_ds, data_meta = build_dataset(config, params, ocv_p, ocv_n)
    train_obj, test_obj = build_objectives(params, ocv_p, ocv_n, config.box,
                                           train_ds, test_ds)
    rep_seeds = np.random.SeedSequence(config.master_seed).spawn(
        2 + config.repetitions)[2:]

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    wall_rows = []
    for rep in range(config.repetitions):
        for method in config.methods:
            row = {"method": method, "rep": rep, "failed": False,
                   "train_loss_V2": None, "test_loss_V2": None,
                   "evaluations": None, "theta": None}
            t_rep = time.perf_counter()
            try:
                # the last row's pair lives on while this one is built, so
                # each row's objectives have new ids (perfbench keys on them)
                train_obj, test_obj = build_objectives(
                    params, ocv_p, ocv_n, config.box, train_ds, test_ds)
                fields, result = fit_and_score(
                    method, train_obj, test_obj, config.budget,
                    rep_seeds[rep], config.s0)
                row.update(fields)
                if out_dir is not None:
                    export_trace(result, config.box,
                                 out_dir / f"trace_{method}_rep{rep}.csv")
            except Exception as exc:  # record, never abort the sweep
                row["failed"] = True
                row["error"] = f"{type(exc).__name__}: {exc}"
            wall_rows.append({"method": method, "rep": rep,
                              "seconds": time.perf_counter() - t_rep})
            rows.append(row)

    results = {
        "config": config.to_dict(),
        "provenance": provenance,
        "truth": data_meta["truth"],
        "rows": rows,
        "aggregates": _aggregate_rows(rows),
        "profile_lengths": {
            "train": [p.n for p in train_ds.profiles],
            "test": [p.n for p in test_ds.profiles],
        },
    }
    time_stats = {}
    for method in config.methods:
        secs = np.array([w["seconds"] for w in wall_rows
                         if w["method"] == method])
        mean, var = _mean_var(secs)
        time_stats[method] = {"mean": mean, "var": var}
    meta = {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "total_seconds": time.perf_counter() - t_start,
        "wall_times": wall_rows,
        "time_stats": time_stats,
        "body_sha256": "",
    }
    report = BenchmarkReport(results=results, meta=meta)
    meta["body_sha256"] = hashlib.sha256(report.body_bytes()).hexdigest()
    if out_dir is not None:
        export_report(report, out_dir, with_traces=False)
        _write_voltage_traces(rows, test_ds, params, ocv_p, ocv_n, out_dir)
        save_dataset(out_dir / "dataset", train_ds, test_ds,
                     extra_meta=data_meta)
    return report


# ---------------------------------------------------------------------------
# exports

def export_report(report: BenchmarkReport, out_dir, formats=("csv", "json"),
                  with_traces: bool = True) -> list[Path]:
    """Write the summary table, per-repetition rows, and voltage-error traces.

    Returns the list of files written.  The summary mirrors the mean/variance
    table layout (wall time, training loss, testing loss); the box-plot file
    holds one row per method x repetition.  The traces derive the cell and
    the test set once from the report's config echo.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    if "json" in formats:
        written.append(report.save(out_dir / "report.json"))

    if "csv" in formats:
        methods = report.results["config"]["methods"]
        aggs = [report.results["aggregates"][m] for m in methods]
        times = [report.meta.get("time_stats", {}).get(m, {}) for m in methods]
        written.append(write_csv(out_dir / "summary.csv", {
            "method": methods,
            "time_mean_s": [t.get("mean", math.nan) for t in times],
            "time_var_s2": [t.get("var", math.nan) for t in times],
            "train_mean_V2": [a["train_mean"] for a in aggs],
            "train_var_V4": [a["train_var"] for a in aggs],
            "test_mean_V2": [a["test_mean"] for a in aggs],
            "test_var_V4": [a["test_var"] for a in aggs],
        }, spec={"time_mean_s": ".6g", "time_var_s2": ".6g"}))
        written.append(write_csv(out_dir / "repetitions.csv", {
            key: [row[key] for row in report.results["rows"]] for key in (
                "method", "rep", "failed", "train_loss_V2", "test_loss_V2",
                "evaluations")}))

    if with_traces:
        config = ExperimentConfig.from_dict(report.results["config"])
        params, ocv_p, ocv_n, _ = resolve_cell(config)
        _, test_ds, _ = build_dataset(config, params, ocv_p, ocv_n)
        written.extend(_write_voltage_traces(report.results["rows"], test_ds,
                                             params, ocv_p, ocv_n, out_dir))
    return written


def _write_voltage_traces(rows, test_ds: IdentificationDataset,
                          params: CellParameters, ocv_p: OcvCurve,
                          ocv_n: OcvCurve, out_dir: Path) -> list[Path]:
    """Per-run measured-vs-model test-set traces under ``out_dir/traces``,
    one file per successful row and test profile with a finite model voltage."""
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    # the columns every run shares on one test profile, formatted once
    shared = [{name: [format(v, ".9g") for v in values.tolist()]
               for name, values in (("time_s", profile.t),
                                    ("current_A", profile.current),
                                    ("voltage_meas_V", measured))}
              for profile, measured in zip(test_ds.profiles, test_ds.voltages)]
    written = []
    for row in rows:
        if row["failed"] or row["theta"] is None:
            continue
        theta = row["theta"]
        fitted = params.replace(k_p=theta["k_p"], k_n=theta["k_n"],
                                D_e=theta["D_e"])
        for i, (profile, measured) in enumerate(
                zip(test_ds.profiles, test_ds.voltages)):
            try:   # none for a theta penalized everywhere or under the step floor
                with np.errstate(all="ignore"):
                    sim = simulate(fitted, ocv_p, ocv_n, profile)
            except (ConfigError, DataError):
                continue
            name = f"voltage_{row['method']}_rep{row['rep']}_test{i}.csv"
            written.append(write_csv(trace_dir / name, {
                **shared[i], "voltage_model_V": sim,
                "error_V": sim - measured}, spec=".9g"))
    return written
