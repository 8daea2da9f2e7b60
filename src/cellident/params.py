"""Cell parameter set for the reduced-order electrochemical voltage model.

All quantities are SI.  The three dynamic parameters targeted by
identification are ``k_p``, ``k_n`` and ``D_e``; everything else is treated
as a known constant of the reference cell.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError

FARADAY = 96485.33212        # C/mol
GAS_CONSTANT = 8.314462618   # J/(mol K)
ELECTRODES = ("p", "n")      # cathode, anode


def is_number(value) -> bool:
    """True for an int or float that JSON would hold as a number (no bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_json_object(path: Path, what: str, error=DataError) -> dict:
    """The JSON object in ``path``; ``error`` naming ``what`` (e.g. "config
    file") when the file is missing, not JSON or not an object."""
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise error(f"{what} not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise error(f"{what} {path} must hold a JSON object")
    return raw


@functools.cache
def electrode_fields(electrode: str, *names: str) -> operator.attrgetter:
    """The one electrode-to-field map: an attrgetter of ``<name>_p`` (or
    ``_n``) per name, ``c0`` reading ``c_p0``; it gives a tuple for several
    names, the bare value for one.  ``electrode_fields("p", "R", "c0")(cell)``
    is ``(cell.R_p, cell.c_p0)``.  ValueError for an electrode but "p" or "n"."""
    if electrode not in ELECTRODES:
        raise ValueError(f"electrode must be 'p' or 'n', got {electrode!r}")
    return operator.attrgetter(*(
        f"c_{electrode}0" if name == "c0" else f"{name}_{electrode}"
        for name in names))


@dataclass(frozen=True)
class CellParameters:
    """Physical constants plus the identified parameters (k_p, k_n, D_e).

    The current-to-flux factors ``J_p``/``J_n`` default to
    ``1 / (a_s,i * L_i * A)`` with specific surface area
    ``a_s,i = 3 * eps_am_i / R_i``.  That is a documented convention, not a
    measurement; a parameter file may override either value (including its
    sign) to select a different electrode current convention.
    """

    # identified dynamic parameters
    k_p: float                  # cathode reaction rate constant
    k_n: float                  # anode reaction rate constant
    D_e: float                  # electrolyte diffusion coefficient [m^2/s]

    # solid-phase transport and structure
    R_p: float                  # cathode particle radius [m]
    R_n: float                  # anode particle radius [m]
    D_p: float                  # cathode solid diffusion coefficient [m^2/s]
    D_n: float                  # anode solid diffusion coefficient [m^2/s]
    eps_am_p: float             # cathode active-material volume fraction
    eps_am_n: float             # anode active-material volume fraction

    # geometry
    L_p: float                  # cathode thickness [m]
    L_n: float                  # anode thickness [m]
    L_cell: float               # cell thickness [m]
    A: float                    # geometric cell area [m^2]
    A_s: float                  # electrode area in the electrolyte term [m^2]

    # concentrations
    c_max_p: float              # max cathode solid concentration [mol/m^3]
    c_max_n: float              # max anode solid concentration [mol/m^3]
    c_p0: float                 # initial cathode surface concentration [mol/m^3]
    c_n0: float                 # initial anode surface concentration [mol/m^3]
    c_e0: float                 # initial electrolyte concentration [mol/m^3]
    c_e_p: float                # local electrolyte concentration, cathode [mol/m^3]
    c_e_n: float                # local electrolyte concentration, anode [mol/m^3]

    # electrolyte transport
    t_plus: float               # transference number t0+
    beta: float                 # activity factor
    gamma_p: float              # electrolyte-potential gain, positive branch
    gamma_n: float              # electrolyte-potential gain, negative branch
    kappa: float                # ionic conductivity [S/m]

    # ohmic and thermal
    R_c: float                  # contact resistance [Ohm]
    T0: float                   # nominal cell temperature [K]
    T_ref: float                # Arrhenius reference temperature [K]
    T: float                    # operating temperature [K]
    E_io_p: float               # activation energy, cathode kinetics [J/mol]
    E_io_n: float               # activation energy, anode kinetics [J/mol]

    # current-to-flux scaling; computed from geometry when omitted
    J_p: float | None = None    # [1/m^2]
    J_n: float | None = None    # [1/m^2]

    # fixed physical constants
    F: float = FARADAY          # Faraday constant [C/mol]
    R_gas: float = GAS_CONSTANT  # universal gas constant [J/(mol K)]

    def __post_init__(self):
        self.validate()
        for electrode in ELECTRODES:
            J, L = electrode_fields(electrode, "J", "L")(self)
            if J is None:
                object.__setattr__(self, f"J_{electrode}",
                                   1.0 / (self.a_s(electrode) * L * self.A))

    def a_s(self, electrode: str) -> float:
        """Specific interfacial surface area 3*eps_am/R [1/m]."""
        eps_am, R = electrode_fields(electrode, "eps_am", "R")(self)
        return 3.0 * eps_am / R

    def i0_scale(self, electrode: str) -> float:
        """Arrhenius factor times F: exp((1/T_ref - 1/T) E_io/R_gas) F."""
        E_io = electrode_fields(electrode, "E_io")(self)
        return math.exp((1.0 / self.T_ref - 1.0 / self.T) * E_io / self.R_gas) * self.F

    def validate(self) -> None:
        """Raise ValueError listing every violated invariant."""
        problems = []
        for name in ("R_p", "R_n", "L_p", "L_n", "L_cell", "A", "A_s",
                     "c_max_p", "c_max_n", "c_e0", "c_e_p", "c_e_n",
                     "T0", "T_ref", "T", "D_e", "D_p", "D_n",
                     "kappa", "k_p", "k_n"):
            value = getattr(self, name)
            if not value > 0.0:
                problems.append(f"{name} must be strictly positive, got {value}")
        for electrode in ELECTRODES:
            c0, c_max = electrode_fields(electrode, "c0", "c_max")(self)
            if not 0.0 < c0 < c_max:
                problems.append(f"c_{electrode}0 must lie in "
                                f"(0, c_max_{electrode}), got {c0}")
        for name in ("t_plus", "eps_am_p", "eps_am_n"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                problems.append(f"{name} must lie in (0, 1), got {value}")
        for electrode in ELECTRODES:
            try:   # exp may overflow; T, T_ref or R_gas may be zero
                scale = abs(self.i0_scale(electrode))
            except ArithmeticError:
                scale = math.inf
            if not 0.0 < scale < math.inf:   # NaN too
                problems.append(f"exp((1/T_ref - 1/T) E_io_{electrode}/R_gas) F "
                                f"must be finite and non-zero, got {scale}")

        if problems:
            raise ValueError("invalid cell parameters: " + "; ".join(problems))

    def replace(self, **changes) -> "CellParameters":
        """Copy with the given fields replaced (re-validates)."""
        return dataclasses.replace(self, **changes)

    def with_theta(self, k_p: float, k_n: float, D_e: float) -> "CellParameters":
        """``replace(k_p=k_p, k_n=k_n, D_e=D_e)``; when all three are positive
        it skips ``validate``, which the other fields passed already."""
        if not (k_p > 0.0 and k_n > 0.0 and D_e > 0.0):
            return self.replace(k_p=k_p, k_n=k_n, D_e=D_e)   # validate's error
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, k_p=k_p, k_n=k_n, D_e=D_e)
        return copy

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "CellParameters":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise DataError(f"unknown cell parameter keys: {sorted(unknown)}")
        optional = ("J_p", "J_n")   # None: computed from geometry
        required = {
            f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.name not in optional
        }
        missing = required - set(raw)
        if missing:
            raise DataError(f"missing cell parameter keys: {sorted(missing)}")
        for name, value in raw.items():
            if not (is_number(value) or (value is None and name in optional)):
                raise DataError(f"cell parameter {name} must be a number, "
                                f"got {value!r}")
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise DataError(str(exc)) from exc


def load_parameter_file(path) -> tuple[CellParameters, Path, Path]:
    """Read a flat JSON parameter file.

    Returns the cell parameters plus the two OCV table paths, resolved
    relative to the file's directory.  Every DataError names the file.
    """
    path = Path(path)
    raw = read_json_object(path, "parameter file")
    ocv_paths = []
    for key in ("ocv_cathode", "ocv_anode"):   # the keys that are not fields
        if key not in raw:
            raise DataError(f"parameter file {path} lacks required key {key!r}")
        if not isinstance(raw[key], str):
            raise DataError(f"parameter file {path}: {key} must be a file name, "
                            f"got {raw[key]!r}")
        ocv_paths.append((path.parent / raw.pop(key)).resolve())
    try:
        return CellParameters.from_dict(raw), *ocv_paths
    except DataError as exc:
        raise DataError(f"parameter file {path}: {exc}") from exc


def reference_cell_path() -> Path:
    """Path of the packaged reference parameter file."""
    return Path(__file__).parent / "data" / "reference_cell.json"
