"""Applied-current profiles.

A profile is a uniformly sampled current waveform I[k] on t[k] = k*dt.
Positive current is discharge.  Waveform builders produce the two kinds of
excitation used by the benchmark harness: a deterministic staircase of
pulse/rest pairs with slow state-of-charge sweeps (training), and a seeded
noise-like cycle (held-out testing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

NOISE_BASE_PERIOD_S = 300.0   # the tile noise_cycle_profile repeats [s]


@dataclass(frozen=True)
class CurrentProfile:
    """Uniform current series; I[k] applies on [t_k, t_{k+1})."""

    dt: float             # sample interval [s]
    current: np.ndarray   # applied current [A], discharge positive

    def __post_init__(self):
        if not self.dt > 0.0:
            raise DataError(f"dt must be positive, got {self.dt}")
        current = np.asarray(self.current, dtype=float)
        if current.ndim != 1 or current.size < 1:
            raise DataError("current must be a non-empty 1-D array")
        if not np.all(np.isfinite(current)):
            raise DataError("current contains non-finite samples")
        object.__setattr__(self, "current", current)

    @property
    def n(self) -> int:
        return self.current.size

    @property
    def t(self) -> np.ndarray:
        return self.dt * np.arange(self.n)


def staircase_profile(i_1c: float, dt: float = 1.0, duration: float = 3600.0) -> CurrentProfile:
    """Deterministic pulse/rest staircase with slow SOC sweeps.

    Blocks of 60 s pulses at {0.2, 0.5, 1, 2} C alternating sign, each
    followed by 60 s rest, interleaved with 300 s unipolar 1C segments that
    walk the state of charge across a wide window.
    """
    n = int(round(duration / dt)) + 1
    current = np.zeros(n)

    def fill(t0, t1, amps):
        k0 = int(round(t0 / dt))
        k1 = min(int(round(t1 / dt)), n)
        current[k0:k1] = amps

    rates = [0.2, 0.5, 1.0, 2.0]
    t = 0.0
    sign = 1.0
    sweep = 1.0
    while t < duration:
        # slow SOC shift
        fill(t, t + 300.0, sweep * i_1c)
        t += 300.0
        sweep = -sweep
        # pulse/rest pairs
        for rate in rates:
            if t >= duration:
                break
            fill(t, t + 60.0, sign * rate * i_1c)
            t += 60.0
            fill(t, t + 60.0, 0.0)
            t += 60.0
            sign = -sign
    current[-1] = current[-2] if n > 1 else 0.0
    return CurrentProfile(dt=dt, current=current)


def noise_cycle_profile(
    i_1c: float,
    seed: int,
    dt: float = 1.0,
    duration: float = 1800.0,
) -> CurrentProfile:
    """Seeded smoothed zero-mean noise, tiled from one base period.

    A drive-cycle-like excitation: white noise smoothed with a 9-tap moving
    average (zero-padded at both ends, summed without BLAS), scaled to peak
    near 2C, mean-removed per period so the state of charge returns to its
    start each tile.
    """
    n_base = int(round(NOISE_BASE_PERIOD_S / dt))
    raw = np.random.default_rng(seed).standard_normal(n_base)
    padded = np.concatenate([np.zeros(4), raw, np.zeros(4)])
    smooth = padded[0:n_base] * (1.0 / 9.0)
    for k in range(1, 9):
        smooth += padded[k:k + n_base] * (1.0 / 9.0)
    smooth -= smooth.mean()
    peak = np.max(np.abs(smooth))
    if peak <= 0.0:
        raise DataError("degenerate noise cycle")
    smooth *= 2.0 * i_1c / peak

    n = int(round(duration / dt)) + 1
    return CurrentProfile(dt=dt, current=np.resize(smooth, n))   # tiled
