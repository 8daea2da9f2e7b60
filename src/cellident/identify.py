"""Parameter space and least-squares voltage-fit objective.

The searched vector is theta = (k_p, k_n, D_e) inside an axis-aligned box.
Optimizers work in normalized unit-cube coordinates; the loss is the plain
sum of squared voltage residuals (V^2, no dt weighting) over every profile
in the training set.  Simulations that leave the model's validity region
(a non-finite voltage, or a squared residual beyond the penalty itself)
contribute a large finite penalty instead of raising, so every optimizer
sees a total, bounded function over the box.

The objective builds each profile's theta-free model terms (``ecm.fixed_terms``)
when it is constructed, so data the model cannot simulate at any theta is a
DataError before the first evaluation.  It also keeps each profile's last
theta terms: eta_p for its k_p, eta_n for its k_n and phi_e for its D_e.  A
later call recomputes only the terms whose component changed, so a
forward-difference probe along one axis costs one term plus the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ecm import (
    FixedTerms,
    check_step,
    electrolyte_potential,
    fixed_terms,
    overpotential,
    terminal_voltage,
)
from .errors import ConfigError, DataError, OutOfBox
from .ocv import OcvCurve
from .params import (CellParameters, check_keys, is_json_number,
                     read_csv_table, read_json_object, write_csv, write_json)
from .profiles import CurrentProfile

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
        # unit-cube edges: the bounds, log10-mapped on log-scaled dimensions
        lo, hi = lower.copy(), upper.copy()
        for i, s in enumerate(scales):
            if s == "log":
                lo[i], hi[i] = np.log10(lo[i]), np.log10(hi[i])
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_width", hi - lo)

    @property
    def n(self) -> int:
        return self.lower.size

    def normalize(self, theta) -> np.ndarray:
        """Physical -> unit cube; OutOfBox outside the box or on NaN."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1] != self.n:
            raise ValueError(
                f"theta has dimension {theta.shape[-1]}, box has {self.n}")
        eps = 1e-12 * (np.abs(self.lower) + np.abs(self.upper))
        if not (np.all(theta >= self.lower - eps)
                and np.all(theta <= self.upper + eps)):   # NaN too
            raise OutOfBox(f"theta {theta} outside box")
        work = theta.copy()
        for i, s in enumerate(self.scales):
            if s == "log":
                work[..., i] = np.log10(work[..., i])
        return (work - self._lo) / self._width

    def denormalize(self, unit) -> np.ndarray:
        """Unit cube -> physical; OutOfBox outside [0,1]^n or on NaN."""
        unit = np.asarray(unit, dtype=float)
        if unit.shape[-1] != self.n:
            raise ValueError(
                f"point has dimension {unit.shape[-1]}, box has {self.n}")
        # one reduction per bound: cheaper than np.all on the few values of
        # an objective call; NaN fails the test
        if not (np.minimum.reduce(unit, axis=None, initial=np.inf) >= -1e-12
                and np.maximum.reduce(unit, axis=None, initial=-np.inf) <= 1.0 + 1e-12):
            raise OutOfBox(f"unit point {unit} outside [0,1]^n")
        work = self._lo + unit * self._width
        for i, s in enumerate(self.scales):
            if s == "log":
                work[..., i] = 10.0 ** work[..., i]
        return work

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "lower": [float(v) for v in self.lower],
            "upper": [float(v) for v in self.upper],
            "scales": list(self.scales),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ParameterBox":
        check_keys(raw, "box", ("names", "lower", "upper", "scales"),
                   ("names", "lower", "upper"))
        for key in ("lower", "upper"):
            values = raw[key]
            if not (isinstance(values, list) and all(map(is_json_number, values))):
                raise DataError(f"box {key} must be a list of finite numbers, "
                                f"got {values!r}")
        return cls(names=tuple(raw["names"]), lower=raw["lower"],
                   upper=raw["upper"], scales=tuple(raw.get("scales", ())))


def default_box() -> ParameterBox:
    """Search box for (k_p, k_n, D_e) bracketing the reference-cell truth."""
    return ParameterBox(
        names=THETA_NAMES,
        lower=np.array([2.0e-11, 2.8e-11, 1.6e-10]),
        upper=np.array([4.5e-11, 5.6e-11, 4.0e-10]),
    )


@dataclass(frozen=True)
class IdentificationDataset:
    """Paired excitation/response records, each with the name that messages
    give it: its file, or ``profile <i>`` by default."""

    profiles: tuple[CurrentProfile, ...]
    voltages: tuple[np.ndarray, ...]
    names: tuple[str, ...] = ()

    def __post_init__(self):
        names = self.names or tuple(f"profile {i}"
                                    for i in range(len(self.profiles)))
        object.__setattr__(self, "names", names)
        voltages = tuple(np.asarray(v, dtype=float) for v in self.voltages)
        object.__setattr__(self, "voltages", voltages)
        if not len(self.profiles) == len(voltages) == len(names):
            raise DataError("dataset needs one voltage series and one name "
                            "per profile")
        if not self.profiles:
            raise DataError("dataset is empty")
        for i, (u, v) in enumerate(zip(self.profiles, voltages)):
            if v.shape != (u.n,):
                raise DataError(f"pair {i}: profile and voltage grids disagree")


@dataclass(frozen=True)
class ObjectiveEvaluation:
    """One scored objective call."""

    loss: float                    # V^2, sum over profiles
    penalized: bool = False        # true when a divergence penalty was charged


class _ProfileTerms:
    """One profile's fixed terms and the last value of each theta term.

    ``eta_p`` was computed at ``k_p``, ``eta_n`` at ``k_n`` and ``phi_e`` at
    ``D_e``; a NaN key means not yet computed.  ``volts`` is the buffer the
    terminal voltage and then the residual are written into.
    """

    def __init__(self, fixed: FixedTerms):
        self.fixed = fixed
        self.k_p = self.k_n = self.D_e = math.nan
        self.eta_p = self.eta_n = self.phi_e = None
        self.volts = np.empty(fixed.current.shape)


class VoltageFitObjective:
    """Summed squared voltage residual over a dataset, as a callable of theta.

    Calling with physical theta returns an ObjectiveEvaluation; the
    ``unit`` method is the float-valued unit-cube view the optimizers use.
    A theta whose voltage is not finite, and any profile whose squared
    residual exceeds DIVERGENCE_PENALTY, overflows or is NaN, charge
    DIVERGENCE_PENALTY; floating-point warnings of a call are silenced.
    Any other error of a call (``check_step``'s ConfigError at a D_e past
    the box, an invalid theta) is raised.

    Construction checks each profile's step at the largest D_e ``unit``
    can produce (ConfigError naming the profile), then builds every
    profile's theta-free terms.  A profile they fail on (a diverging
    concentration, an out-of-table OCV query) cannot be fit at any theta:
    DataError naming each such profile with ``fixed_terms``' message, which
    ``bench.build_objectives`` prefixes with why no theta can fit.
    """

    def __init__(self, base: CellParameters, ocv_p: OcvCurve, ocv_n: OcvCurve,
                 box: ParameterBox, dataset: IdentificationDataset):
        if tuple(box.names) != THETA_NAMES:
            raise DataError(f"objective expects box over {THETA_NAMES}")
        self.base = base
        self.box = box
        self.dataset = dataset
        d_e = float(box.denormalize(np.ones(box.n))[THETA_NAMES.index("D_e")])
        for name, profile in zip(dataset.names, dataset.profiles):
            try:
                check_step(base.replace(D_e=d_e), profile.dt)
            except ConfigError as exc:
                raise ConfigError(
                    f"search box upper D_e = {d_e:g} m^2/s cannot be simulated "
                    f"on {name} with dt = {profile.dt:g} s: {exc}") from exc
        self._terms = []
        causes = []
        for name, profile in zip(dataset.names, dataset.profiles):
            try:
                self._terms.append(
                    _ProfileTerms(fixed_terms(base, ocv_p, ocv_n, profile)))
            except DataError as exc:
                causes.append(f"{name}: {exc}")
        if causes:
            raise DataError("; ".join(causes))

    def __call__(self, theta) -> ObjectiveEvaluation:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.box.n,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({self.box.n},)")
        params = self.base.with_theta(float(theta[0]), float(theta[1]),
                                      float(theta[2]))
        per = []
        penalized = False
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for terms, profile, measured in zip(
                    self._terms, self.dataset.profiles, self.dataset.voltages):
                loss = self._profile_loss(terms, params, profile, measured)
                if loss is None:
                    per.append(DIVERGENCE_PENALTY)
                    penalized = True
                else:
                    per.append(loss)
        return ObjectiveEvaluation(loss=float(sum(per)), penalized=penalized)

    @staticmethod
    def _profile_loss(terms: _ProfileTerms, params: CellParameters,
                      profile: CurrentProfile,
                      measured: np.ndarray) -> float | None:
        """Squared residual of one profile; None when the voltage is not
        finite or the residual exceeds DIVERGENCE_PENALTY.

        The step is checked only when D_e changed.
        """
        if terms.D_e != params.D_e:
            check_step(params, profile.dt)
        if terms.k_p != params.k_p:
            terms.eta_p = overpotential(params, terms.fixed, "p")
            terms.k_p = params.k_p
        if terms.k_n != params.k_n:
            terms.eta_n = overpotential(params, terms.fixed, "n")
            terms.k_n = params.k_n
        if terms.D_e != params.D_e:
            terms.phi_e = electrolyte_potential(params, profile)
            terms.D_e = params.D_e
        residual = terminal_voltage(terms.fixed, terms.eta_p, terms.eta_n,
                                    terms.phi_e, terms.volts)
        residual -= measured
        residual *= residual   # scratch: terminal_voltage rewrites it
        loss = float(np.add.reduce(residual))
        return loss if loss <= DIVERGENCE_PENALTY else None   # inf, NaN too

    def unit(self, point) -> float:
        """Loss at a unit-cube point clipped into the cube (optimizer view)."""
        theta = self.box.denormalize(np.clip(np.asarray(point, dtype=float),
                                             0.0, 1.0))
        return self(theta).loss


# ---------------------------------------------------------------------------
# dataset files: one CSV per profile plus a manifest listing roles

def save_profile_csv(path, profile: CurrentProfile, volts: np.ndarray) -> None:
    if np.shape(volts) != (profile.n,):
        raise DataError("profile and voltage grids disagree")
    write_csv(path, {"time_s": profile.t, "current_A": profile.current,
                     "voltage_V": volts})


def _finite_column(path, table, name: str) -> np.ndarray:
    """Column ``name`` of ``table`` as a contiguous copy, which does not keep
    the table alive; DataError naming the file and the first data row whose
    cell is blank or not finite."""
    column = np.array(table[name], ndmin=1)
    bad = np.flatnonzero(~np.isfinite(column))
    if bad.size:
        raise DataError(f"profile file {path} has a blank or non-finite "
                        f"{name} in data row {bad[0] + 1}")
    return column


def _read_profile_table(path, columns_ok, columns: str):
    """(profile, table) of a uniformly sampled CSV with a header row.

    DataError when the file is missing or malformed, when its column names
    fail ``columns_ok`` (the message asks for ``columns``), when a
    ``time_s`` or ``current_A`` cell is blank or not finite, or when it has
    fewer than two samples or a ``time_s`` grid that does not increase
    evenly.
    """
    path = Path(path)
    table = read_csv_table(path, "profile file")
    if not columns_ok(set(table.dtype.names or ())):
        raise DataError(f"profile file {path} must have columns {columns}")
    t = _finite_column(path, table, "time_s")
    current = _finite_column(path, table, "current_A")
    if t.size < 2:
        raise DataError(f"profile file {path} needs at least two samples")
    steps = np.diff(t)
    dt = float(steps[0])
    if not dt > 0.0:
        raise DataError(f"profile file {path} needs an increasing time_s "
                        f"column, got a first step of {dt:g} s")
    if not np.allclose(steps, dt, rtol=1e-9, atol=1e-12):
        raise DataError(f"profile file {path} is not uniformly sampled")
    return CurrentProfile(dt=dt, current=current), table


def load_profile_csv(path) -> tuple[CurrentProfile, np.ndarray]:
    """A dataset file: exactly the columns time_s,current_A,voltage_V.

    DataError also when a voltage is blank or not finite.
    """
    expected = {"time_s", "current_A", "voltage_V"}
    profile, table = _read_profile_table(path, lambda names: names == expected,
                                         "time_s,current_A,voltage_V")
    return profile, _finite_column(path, table, "voltage_V")


def load_current_csv(path) -> CurrentProfile:
    """An excitation file: columns time_s,current_A, others ignored."""
    return _read_profile_table(
        path, lambda names: {"time_s", "current_A"} <= names,
        "time_s,current_A")[0]


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
    return write_json(out_dir / "manifest.json", manifest)


def load_dataset(manifest_path) -> tuple[IdentificationDataset, IdentificationDataset, dict]:
    """Read a manifest and its profile CSVs; returns (train, test, meta)."""
    manifest_path = Path(manifest_path)
    manifest = read_json_object(manifest_path, "manifest")
    check_keys(manifest, f"manifest {manifest_path}", ("train", "test", "meta"))

    out = {}
    for role in ("train", "test"):
        names = manifest.get(role, [])
        if not names:
            raise DataError(f"manifest {manifest_path} lists no {role} profiles")
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise DataError(f"manifest {manifest_path}: {role} must be a list "
                            f"of file names, got {names!r}")
        profiles, volts = [], []
        for name in names:
            u, v = load_profile_csv(manifest_path.parent / name)
            profiles.append(u)
            volts.append(v)
        out[role] = IdentificationDataset(profiles=tuple(profiles),
                                          voltages=tuple(volts),
                                          names=tuple(names))
    return out["train"], out["test"], manifest.get("meta", {})
