"""Parameter space and least-squares voltage-fit objective.

The searched vector is theta = (k_p, k_n, D_e) inside an axis-aligned box.
Optimizers work in normalized unit-cube coordinates; the loss is the plain
sum of squared voltage residuals (V^2, no dt weighting) over every profile
in the training set.  Simulations that leave the model's validity region
(a non-finite voltage, or a squared residual beyond the penalty itself)
contribute a large finite penalty instead of raising, so every optimizer
sees a total, bounded function over the box.

The objective builds each profile's theta-free model terms (``ecm.fixed_terms``)
on its first call and reuses them, so later calls only assemble the voltage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ._blas import sum_of_squares
from .ecm import DiscreteCellModel, FixedTerms, assemble, build_model, fixed_terms
from .errors import DataError, DimensionMismatch, OutOfBox, SimulationDiverged
from .ocv import OcvCurve
from .params import CellParameters
from .profiles import CurrentProfile, VoltageSeries

DIVERGENCE_PENALTY = 1.0e6   # V^2, charged when a proposed theta breaks the model

THETA_NAMES = ("k_p", "k_n", "D_e")


def is_number(value) -> bool:
    """True for an int or float that JSON would hold as a number (no bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ParameterBox:
    """Axis-aligned search box with affine (or log-affine) unit-cube maps."""

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    scales: tuple[str, ...] = ()   # per-dimension "linear" (default) or "log"

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        names = tuple(self.names)
        if lower.ndim != 1 or upper.ndim != 1 or lower.shape != upper.shape:
            raise DataError("box bounds must be matching 1-D arrays")
        if len(names) != lower.size:
            raise DataError("box names and bounds disagree in length")
        if not (np.all(np.isfinite([lower, upper])) and np.all(lower < upper)):
            raise DataError("box requires finite bounds with lower < upper in "
                            "every dimension")
        scales = tuple(self.scales) if self.scales else ("linear",) * lower.size
        if len(scales) != lower.size or any(s not in ("linear", "log") for s in scales):
            raise DataError("scales must be 'linear' or 'log' per dimension")
        if any(s == "log" for s in scales) and np.any(lower[np.array([s == "log" for s in scales])] <= 0.0):
            raise DataError("log-scaled dimensions need positive lower bounds")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "scales", scales)

    @property
    def n(self) -> int:
        return self.lower.size

    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.lower.copy()
        hi = self.upper.copy()
        for i, s in enumerate(self.scales):
            if s == "log":
                lo[i] = np.log10(lo[i])
                hi[i] = np.log10(hi[i])
        return lo, hi

    def normalize(self, theta) -> np.ndarray:
        """Physical -> unit cube; OutOfBox outside the box."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1] != self.n:
            raise DimensionMismatch(
                f"theta has dimension {theta.shape[-1]}, box has {self.n}")
        eps = 1e-12 * (np.abs(self.lower) + np.abs(self.upper))
        if np.any(theta < self.lower - eps) or np.any(theta > self.upper + eps):
            raise OutOfBox(f"theta {theta} outside box")
        work = theta.copy()
        for i, s in enumerate(self.scales):
            if s == "log":
                work[..., i] = np.log10(work[..., i])
        lo, hi = self._edges()
        return (work - lo) / (hi - lo)

    def denormalize(self, unit) -> np.ndarray:
        """Unit cube -> physical; OutOfBox outside [0,1]^n."""
        unit = np.asarray(unit, dtype=float)
        if unit.shape[-1] != self.n:
            raise DimensionMismatch(
                f"point has dimension {unit.shape[-1]}, box has {self.n}")
        if np.any(unit < -1e-12) or np.any(unit > 1.0 + 1e-12):
            raise OutOfBox(f"unit point {unit} outside [0,1]^n")
        lo, hi = self._edges()
        work = lo + unit * (hi - lo)
        out = work.copy()
        for i, s in enumerate(self.scales):
            if s == "log":
                out[..., i] = 10.0 ** work[..., i]
        return out

    def clip_unit(self, unit) -> np.ndarray:
        return np.clip(np.asarray(unit, dtype=float), 0.0, 1.0)

    def midpoint(self) -> np.ndarray:
        return self.denormalize(np.full(self.n, 0.5))

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
            "scales": list(self.scales),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ParameterBox":
        known = {"names", "lower", "upper", "scales"}
        unknown = set(raw) - known
        if unknown:
            raise DataError(f"unknown box keys: {sorted(unknown)}")
        for key in ("lower", "upper"):
            values = raw.get(key, [])
            if not (isinstance(values, list) and all(map(is_number, values))):
                raise DataError(f"box {key} must be a list of numbers, got "
                                f"{values!r}")
        try:
            return cls(
                names=tuple(raw["names"]),
                lower=np.asarray(raw["lower"], dtype=float),
                upper=np.asarray(raw["upper"], dtype=float),
                scales=tuple(raw.get("scales", ())),
            )
        except KeyError as exc:
            raise DataError(f"box definition missing key {exc}") from exc


def default_box() -> ParameterBox:
    """Search box for (k_p, k_n, D_e) bracketing the reference-cell truth."""
    return ParameterBox(
        names=THETA_NAMES,
        lower=np.array([2.0e-11, 2.8e-11, 1.6e-10]),
        upper=np.array([4.5e-11, 5.6e-11, 4.0e-10]),
    )


@dataclass(frozen=True)
class IdentificationDataset:
    """Paired excitation/response records with a train/test role tag."""

    profiles: tuple[CurrentProfile, ...]
    voltages: tuple[VoltageSeries, ...]
    role: str = "train"

    def __post_init__(self):
        if self.role not in ("train", "test"):
            raise DataError(f"role must be 'train' or 'test', got {self.role!r}")
        if len(self.profiles) != len(self.voltages):
            raise DataError("dataset needs one voltage series per profile")
        if not self.profiles:
            raise DataError("dataset is empty")
        for i, (u, v) in enumerate(zip(self.profiles, self.voltages)):
            if u.n != v.n or u.dt != v.dt:
                raise DataError(f"pair {i}: profile and voltage grids disagree")

    def __len__(self) -> int:
        return len(self.profiles)


@dataclass(frozen=True)
class ObjectiveEvaluation:
    """One scored objective call."""

    theta: np.ndarray              # physical units
    loss: float                    # V^2, sum over profiles
    per_profile: tuple[float, ...]
    penalized: bool = False        # true when a divergence penalty was charged


class VoltageFitObjective:
    """Summed squared voltage residual over a dataset, as a callable of theta.

    Calling with physical theta returns an ObjectiveEvaluation; the
    ``unit`` method is the float-valued unit-cube view the optimizers use.
    Divergent simulations, and any profile whose squared residual exceeds
    DIVERGENCE_PENALTY or overflows, charge DIVERGENCE_PENALTY.
    A divergence of the theta-free terms is remembered, since no theta can
    cure it; any other error is raised again on every call.  Floating-point
    warnings of a call are silenced: a theta that overflows is penalized.
    """

    def __init__(self, base: CellParameters, ocv_p: OcvCurve, ocv_n: OcvCurve,
                 box: ParameterBox, dataset: IdentificationDataset):
        if tuple(box.names) != THETA_NAMES:
            raise DataError(f"objective expects box over {THETA_NAMES}")
        self.base = base
        self.ocv_p = ocv_p
        self.ocv_n = ocv_n
        self.box = box
        self.dataset = dataset
        self._fixed: dict[int, FixedTerms | None] = {}   # None: diverged

    def __call__(self, theta) -> ObjectiveEvaluation:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.box.n,):
            raise DimensionMismatch(
                f"theta has shape {theta.shape}, expected ({self.box.n},)")
        params = self.base.replace(k_p=float(theta[0]), k_n=float(theta[1]),
                                   D_e=float(theta[2]))
        per = []
        penalized = False
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i, (profile, measured) in enumerate(
                    zip(self.dataset.profiles, self.dataset.voltages)):
                model = build_model(params, self.ocv_p, self.ocv_n, profile.dt)
                loss = self._profile_loss(i, model, profile, measured)
                if loss is None:
                    per.append(DIVERGENCE_PENALTY)
                    penalized = True
                else:
                    per.append(loss)
        return ObjectiveEvaluation(theta=theta, loss=float(sum(per)),
                                   per_profile=tuple(per), penalized=penalized)

    def _profile_loss(self, i: int, model: DiscreteCellModel,
                      profile: CurrentProfile,
                      measured: VoltageSeries) -> float | None:
        """Squared residual of profile ``i``; None when the simulation
        diverges or the residual exceeds DIVERGENCE_PENALTY."""
        if i not in self._fixed:
            try:
                terms = fixed_terms(model, profile)
                self._fixed[i] = replace(terms, c_p=None, c_n=None)
            except SimulationDiverged:
                self._fixed[i] = None
        terms = self._fixed[i]
        if terms is None:
            return None
        try:
            residual = assemble(model, terms).volts - measured.volts
        except SimulationDiverged:
            return None
        loss = sum_of_squares(residual)
        return loss if loss <= DIVERGENCE_PENALTY else None   # inf, NaN too

    def unit(self, point) -> float:
        """Loss at a unit-cube point (the optimizer-facing view)."""
        theta = self.box.denormalize(self.box.clip_unit(point))
        return self(theta).loss


# ---------------------------------------------------------------------------
# dataset files: one CSV per profile plus a manifest listing roles

def save_profile_csv(path, profile: CurrentProfile, volts: VoltageSeries) -> None:
    if profile.n != volts.n or profile.dt != volts.dt:
        raise DataError("profile and voltage grids disagree")
    rows = np.column_stack([profile.t, profile.current, volts.volts])
    np.savetxt(path, rows, delimiter=",", comments="",
               header="time_s,current_A,voltage_V", fmt="%.12g")


def _read_profile_table(path, columns_ok, columns: str):
    """(table, dt) of a uniformly sampled CSV with a header row.

    DataError when the file is missing or malformed, when its column names
    fail ``columns_ok`` (the message asks for ``columns``), or when it has
    fewer than two samples or an uneven ``time_s`` grid.
    """
    path = Path(path)
    try:
        table = np.genfromtxt(path, delimiter=",", names=True)
    except FileNotFoundError as exc:
        raise DataError(f"profile file not found: {path}") from exc
    except ValueError as exc:
        raise DataError(f"profile file {path} is malformed: {exc}") from exc
    if not columns_ok(set(table.dtype.names or ())):
        raise DataError(f"profile file {path} must have columns {columns}")
    t = np.atleast_1d(table["time_s"])
    if t.size < 2:
        raise DataError(f"profile file {path} needs at least two samples")
    steps = np.diff(t)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise DataError(f"profile file {path} is not uniformly sampled")
    return table, dt


def load_profile_csv(path) -> tuple[CurrentProfile, VoltageSeries]:
    """A dataset file: exactly the columns time_s,current_A,voltage_V."""
    expected = {"time_s", "current_A", "voltage_V"}
    table, dt = _read_profile_table(path, lambda names: names == expected,
                                    "time_s,current_A,voltage_V")
    profile = CurrentProfile(dt=dt, current=np.atleast_1d(table["current_A"]))
    volts = VoltageSeries(dt=dt, volts=np.atleast_1d(table["voltage_V"]))
    return profile, volts


def load_current_csv(path) -> CurrentProfile:
    """An excitation file: columns time_s,current_A, others ignored."""
    table, dt = _read_profile_table(
        path, lambda names: {"time_s", "current_A"} <= names,
        "time_s,current_A")
    return CurrentProfile(dt=dt, current=np.atleast_1d(table["current_A"]))


def save_dataset(out_dir, train: IdentificationDataset,
                 test: IdentificationDataset, extra_meta: dict | None = None) -> Path:
    """Write per-profile CSVs plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"train": [], "test": []}
    for role, ds in (("train", train), ("test", test)):
        for i, (u, v) in enumerate(zip(ds.profiles, ds.voltages)):
            name = f"{role}_{i}.csv"
            save_profile_csv(out_dir / name, u, v)
            manifest[role].append(name)
    if extra_meta:
        manifest["meta"] = extra_meta
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_dataset(manifest_path) -> tuple[IdentificationDataset, IdentificationDataset, dict]:
    """Read a manifest and its profile CSVs; returns (train, test, meta)."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except FileNotFoundError as exc:
        raise DataError(f"manifest not found: {manifest_path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"manifest {manifest_path} must hold a JSON object")
    unknown = set(manifest) - {"train", "test", "meta"}
    if unknown:
        raise DataError(f"manifest has unknown keys: {sorted(unknown)}")

    out = {}
    for role in ("train", "test"):
        names = manifest.get(role, [])
        if not names:
            raise DataError(f"manifest lists no {role} profiles")
        profiles, volts = [], []
        for name in names:
            u, v = load_profile_csv(manifest_path.parent / name)
            profiles.append(u)
            volts.append(v)
        out[role] = IdentificationDataset(profiles=tuple(profiles),
                                          voltages=tuple(volts), role=role)
    return out["train"], out["test"], manifest.get("meta", {})
