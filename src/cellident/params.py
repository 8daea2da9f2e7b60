"""Cell parameter set for the reduced-order electrochemical voltage model.

All quantities are SI.  The three dynamic parameters targeted by
identification are ``k_p``, ``k_n`` and ``D_e``; everything else is treated
as a known constant of the reference cell.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError

FARADAY = 96485.33212        # C/mol
GAS_CONSTANT = 8.314462618   # J/(mol K)


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
        if self.J_p is None:
            object.__setattr__(self, "J_p", 1.0 / (self.a_s("p") * self.L_p * self.A))
        if self.J_n is None:
            object.__setattr__(self, "J_n", 1.0 / (self.a_s("n") * self.L_n * self.A))
        self.validate()

    def a_s(self, electrode: str) -> float:
        """Specific interfacial surface area 3*eps_am/R [1/m]."""
        if electrode == "p":
            return 3.0 * self.eps_am_p / self.R_p
        if electrode == "n":
            return 3.0 * self.eps_am_n / self.R_n
        raise ValueError(f"electrode must be 'p' or 'n', got {electrode!r}")

    def validate(self) -> None:
        """Raise ValueError listing every violated invariant."""
        problems = []

        positive = {
            "R_p": self.R_p, "R_n": self.R_n, "L_p": self.L_p, "L_n": self.L_n,
            "L_cell": self.L_cell, "A": self.A, "A_s": self.A_s,
            "c_max_p": self.c_max_p, "c_max_n": self.c_max_n,
            "c_e0": self.c_e0, "c_e_p": self.c_e_p, "c_e_n": self.c_e_n,
            "T0": self.T0, "T_ref": self.T_ref, "T": self.T,
            "D_e": self.D_e, "D_p": self.D_p, "D_n": self.D_n,
            "kappa": self.kappa, "k_p": self.k_p, "k_n": self.k_n,
        }
        for name, value in positive.items():
            if not value > 0.0:
                problems.append(f"{name} must be strictly positive, got {value}")

        if not 0.0 < self.c_p0 < self.c_max_p:
            problems.append(f"c_p0 must lie in (0, c_max_p), got {self.c_p0}")
        if not 0.0 < self.c_n0 < self.c_max_n:
            problems.append(f"c_n0 must lie in (0, c_max_n), got {self.c_n0}")
        if not 0.0 < self.t_plus < 1.0:
            problems.append(f"t_plus must lie in (0, 1), got {self.t_plus}")
        if not 0.0 < self.eps_am_p < 1.0:
            problems.append(f"eps_am_p must lie in (0, 1), got {self.eps_am_p}")
        if not 0.0 < self.eps_am_n < 1.0:
            problems.append(f"eps_am_n must lie in (0, 1), got {self.eps_am_n}")

        if problems:
            raise ValueError("invalid cell parameters: " + "; ".join(problems))

    def replace(self, **changes) -> "CellParameters":
        """Copy with the given fields replaced (re-validates)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "CellParameters":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise DataError(f"unknown cell parameter keys: {sorted(unknown)}")
        required = {
            f.name for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING and f.name not in ("J_p", "J_n")
        }
        missing = required - set(raw)
        if missing:
            raise DataError(f"missing cell parameter keys: {sorted(missing)}")
        try:
            return cls(**raw)
        except (TypeError, ValueError) as exc:
            raise DataError(f"invalid cell parameters: {exc}") from exc


# Keys of the parameter file that are not CellParameters fields.
_FILE_EXTRA_KEYS = ("ocv_cathode", "ocv_anode")


def load_parameter_file(path) -> tuple[CellParameters, Path, Path]:
    """Read a flat JSON parameter file.

    Returns the cell parameters plus the two OCV table paths, resolved
    relative to the file's directory.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise DataError(f"parameter file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"parameter file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DataError(f"parameter file {path} must hold a JSON object")

    for key in _FILE_EXTRA_KEYS:
        if key not in raw:
            raise DataError(f"parameter file {path} lacks required key {key!r}")
    ocv_p = (path.parent / raw.pop("ocv_cathode")).resolve()
    ocv_n = (path.parent / raw.pop("ocv_anode")).resolve()
    params = CellParameters.from_dict(raw)
    return params, ocv_p, ocv_n


def reference_cell_path() -> Path:
    """Path of the packaged reference parameter file."""
    return Path(__file__).parent / "data" / "reference_cell.json"
