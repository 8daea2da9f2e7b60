"""Parameter space and least-squares voltage-fit objective.

The searched vector is theta = (k_p, k_n, D_e) inside an axis-aligned box.
Optimizers work in normalized unit-cube coordinates; the loss is the plain
sum of squared voltage residuals (V^2, no dt weighting) over every profile
in the training set.  Simulations that leave the model's validity region
contribute a large finite penalty instead of raising, so every optimizer
sees a total function over the box.

The objective builds each profile's theta-free model terms (``ecm.fixed_terms``)
on its first call and reuses them, so later calls only assemble the voltage.
"""

from __future__ import annotations

import json
import time
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
        if not np.all(lower < upper):
            raise DataError("box requires lower < upper in every dimension")
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

    def normalize(self, theta, strict: bool = True) -> np.ndarray:
        """Physical -> unit cube; OutOfBox outside the box when strict."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1] != self.n:
            raise DimensionMismatch(
                f"theta has dimension {theta.shape[-1]}, box has {self.n}")
        if strict:
            eps = 1e-12 * (np.abs(self.lower) + np.abs(self.upper))
            if np.any(theta < self.lower - eps) or np.any(theta > self.upper + eps):
                raise OutOfBox(f"theta {theta} outside box")
        work = theta.copy()
        for i, s in enumerate(self.scales):
            if s == "log":
                work[..., i] = np.log10(work[..., i])
        lo, hi = self._edges()
        return (work - lo) / (hi - lo)

    def denormalize(self, unit, strict: bool = True) -> np.ndarray:
        """Unit cube -> physical; OutOfBox outside [0,1]^n when strict."""
        unit = np.asarray(unit, dtype=float)
        if unit.shape[-1] != self.n:
            raise DimensionMismatch(
                f"point has dimension {unit.shape[-1]}, box has {self.n}")
        if strict and (np.any(unit < -1e-12) or np.any(unit > 1.0 + 1e-12)):
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
    index: int                     # 0-based evaluation counter
    wall_time_s: float
    penalized: bool = False        # true when a divergence penalty was charged


class VoltageFitObjective:
    """Summed squared voltage residual over a dataset, as a callable of theta.

    Calling with physical theta returns an ObjectiveEvaluation; the
    ``unit`` method is the float-valued unit-cube view the optimizers use.
    Divergent simulations charge DIVERGENCE_PENALTY per failing profile.
    A divergence of the theta-free terms is remembered, since no theta can
    cure it; any other error is raised again on every call.
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
        self.evaluations: list[ObjectiveEvaluation] = []
        self._fixed: dict[int, FixedTerms | None] = {}   # None: diverged

    def __call__(self, theta) -> ObjectiveEvaluation:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.box.n,):
            raise DimensionMismatch(
                f"theta has shape {theta.shape}, expected ({self.box.n},)")
        t0 = time.perf_counter()
        params = self.base.replace(k_p=float(theta[0]), k_n=float(theta[1]),
                                   D_e=float(theta[2]))
        per = []
        penalized = False
        for i, (profile, measured) in enumerate(
                zip(self.dataset.profiles, self.dataset.voltages)):
            model = build_model(params, self.ocv_p, self.ocv_n, profile.dt)
            loss = self._profile_loss(i, model, profile, measured)
            if loss is None:
                per.append(DIVERGENCE_PENALTY)
                penalized = True
            else:
                per.append(loss)
        ev = ObjectiveEvaluation(
            theta=theta, loss=float(sum(per)), per_profile=tuple(per),
            index=len(self.evaluations), wall_time_s=time.perf_counter() - t0,
            penalized=penalized,
        )
        self.evaluations.append(ev)
        return ev

    def _profile_loss(self, i: int, model: DiscreteCellModel,
                      profile: CurrentProfile,
                      measured: VoltageSeries) -> float | None:
        """Squared residual of profile ``i``; None when the simulation diverges."""
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
        return sum_of_squares(residual)

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


def load_profile_csv(path) -> tuple[CurrentProfile, VoltageSeries]:
    path = Path(path)
    try:
        table = np.genfromtxt(path, delimiter=",", names=True)
    except FileNotFoundError as exc:
        raise DataError(f"profile file not found: {path}") from exc
    except ValueError as exc:
        raise DataError(f"profile file {path} is malformed: {exc}") from exc
    expected = {"time_s", "current_A", "voltage_V"}
    if table.dtype.names is None or set(table.dtype.names) != expected:
        raise DataError(f"profile file {path} must have columns time_s,current_A,voltage_V")
    t = np.atleast_1d(table["time_s"])
    if t.size < 2:
        raise DataError(f"profile file {path} needs at least two samples")
    steps = np.diff(t)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise DataError(f"profile file {path} is not uniformly sampled")
    profile = CurrentProfile(dt=dt, current=np.atleast_1d(table["current_A"]))
    volts = VoltageSeries(dt=dt, volts=np.atleast_1d(table["voltage_V"]))
    return profile, volts


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
