"""Open-circuit potential tables U(x) over stoichiometry x in [0, 1].

Tables are strictly decreasing in x and evaluated by linear interpolation.
Queries outside the tabulated stoichiometry range are a hard error rather
than an extrapolation, since the simulator must not silently leave the
calibrated window.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import DataError


class OcvCurve:
    """Strictly decreasing potential-vs-stoichiometry table."""

    def __init__(self, x: np.ndarray, u: np.ndarray):
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        if x.ndim != 1 or u.ndim != 1 or x.shape != u.shape:
            raise DataError("OCV table needs matching 1-D x and U arrays")
        if x.size < 2:
            raise DataError("OCV table needs at least two points")
        if not np.all(np.isfinite(x)):
            raise DataError("OCV stoichiometry contains non-finite values")
        if not np.all(np.diff(x) > 0.0):
            raise DataError("OCV stoichiometry grid must be strictly increasing")
        if not (x[0] <= 0.0 and x[-1] >= 1.0):
            raise DataError("OCV stoichiometry grid must cover [0, 1]")
        if not np.all(np.isfinite(u)):
            raise DataError("OCV potential contains non-finite values")
        if not np.all(np.diff(u) <= 0.0):
            raise DataError("OCV potential must be non-increasing in x")
        self.x = x
        self.u = u

    def __call__(self, x):
        """Interpolated potential; raises DataError outside the grid."""
        x = np.asarray(x, dtype=float)
        if np.any(x < self.x[0]) or np.any(x > self.x[-1]):
            bad = x[(x < self.x[0]) | (x > self.x[-1])]
            raise DataError(
                f"stoichiometry query outside table range "
                f"[{self.x[0]:g}, {self.x[-1]:g}]: {np.atleast_1d(bad)[0]:g}"
            )
        return np.interp(x, self.x, self.u)

    @classmethod
    def from_csv(cls, path) -> "OcvCurve":
        path = Path(path)
        try:
            table = np.genfromtxt(path, delimiter=",", names=True)
        except FileNotFoundError as exc:
            raise DataError(f"OCV table not found: {path}") from exc
        except ValueError as exc:
            raise DataError(f"OCV table {path} is malformed: {exc}") from exc
        if table.dtype.names is None or set(table.dtype.names) != {"x", "U_volts"}:
            raise DataError(f"OCV table {path} must have columns 'x,U_volts'")
        return cls(np.atleast_1d(table["x"]), np.atleast_1d(table["U_volts"]))
