"""Dynamic sea-surface clutter.

Each water patch carries an Ornstein-Uhlenbeck radial surface velocity
whose stationary standard deviation scales with wind speed, plus a
unit-median lognormal amplitude factor whose log-spread also scales
with wind speed.  Per pulse, the velocity maps to a Doppler offset
(monostatic convention, 2 v / lambda) and the offsets integrate into a
per-pulse phase track that feeds synthesize_ir.

At zero wind every draw collapses to exactly zero velocity and unit
amplitude, so the channel reduces bit-for-bit to the static terrain
case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .seeding import STREAM_OCEAN, normal_pair, philox_key, philox_words
from .workers import run_blocks

DEFAULT_VELOCITY_PER_WIND = 0.1      # stationary velocity sigma per m/s of wind
DEFAULT_LOG_AMP_PER_WIND = 0.02      # lognormal sigma per m/s of wind

_CHUNK_BLOCKS = 1 << 16              # Philox blocks per row chunk; bounds scratch memory


@dataclass
class OceanState:
    """Sea-surface configuration for a set of water patches, named by
    the patch ids that key their draws."""

    ids: np.ndarray                      # (n,) int patch ids
    wind_speed: float                    # m/s
    velocity_per_wind: float = DEFAULT_VELOCITY_PER_WIND
    log_amp_per_wind: float = DEFAULT_LOG_AMP_PER_WIND
    correlation_time: float = 0.05       # s, OU velocity decorrelation

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64).reshape(-1)
        if self.wind_speed < 0:
            raise ConfigurationError(f"wind_speed must be non-negative, got {self.wind_speed}")
        if self.correlation_time <= 0:
            raise ConfigurationError("correlation_time must be positive")
        if self.velocity_per_wind < 0 or self.log_amp_per_wind < 0:
            raise ConfigurationError("wind scaling coefficients must be non-negative")

    @property
    def velocity_std(self) -> float:
        """Stationary radial-velocity sigma, m/s."""
        return self.velocity_per_wind * self.wind_speed

    @property
    def log_amp_std(self) -> float:
        return self.log_amp_per_wind * self.wind_speed


def surface_series(state: OceanState, num_pulses: int, prf: float,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch radial velocities and amplitude factors over a CPI.

    Returns (velocities, amplitudes), each (num_patches, num_pulses).
    Each patch draws from its own Philox counters keyed by patch_id
    (see `seeding`): pulse m takes words 2m and 2m + 1 of the patch's
    stream, whose Box-Muller pair is the velocity innovation and the
    amplitude draw, so a series of any length is a prefix of a longer
    one.

    The patches are split into row chunks of about _CHUNK_BLOCKS Philox
    blocks, which run on every core (`workers.run_blocks`).  A chunk
    draws its words, runs the velocity recursion and forms the
    amplitudes of its own rows only, with the arithmetic of one pass
    over every row, so the bytes are the same at any core count.
    """
    if num_pulses < 1:
        raise ConfigurationError(f"num_pulses must be >= 1, got {num_pulses}")
    if not (np.isfinite(prf) and prf > 0):
        raise ConfigurationError(f"prf must be positive and finite, got {prf}")
    n = len(state.ids)
    key = philox_key(seed, STREAM_OCEAN)
    blocks = -(-2 * num_pulses // 4)
    step = max(1, _CHUNK_BLOCKS // blocks)
    sigma_v = state.velocity_std
    log_amp_std = state.log_amp_std
    rho = float(np.exp(-1.0 / (state.correlation_time * prf)))
    drive = sigma_v * np.sqrt(1.0 - rho * rho)
    vel = np.empty((n, num_pulses))
    amp = np.empty((n, num_pulses))

    def series(chunks: range) -> None:
        for chunk in chunks:
            rows = slice(chunk * step, (chunk + 1) * step)
            words = philox_words(key, state.ids[rows], 0, blocks)
            xi, za = normal_pair(words[:, 0:2 * num_pulses:2], words[:, 1:2 * num_pulses:2])
            v = vel[rows]
            v[:, 0] = sigma_v * xi[:, 0]
            for m in range(1, num_pulses):
                v[:, m] = rho * v[:, m - 1] + drive * xi[:, m]
            np.exp(log_amp_std * za, out=amp[rows])

    run_blocks(series, -(-n // step))
    return vel, amp


def pulse_modulation(state: OceanState, num_pulses: int, prf: float,
                     wavelength: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-patch, per-pulse extra phase (rad) and amplitude factor.

    The phase track integrates the per-pulse Doppler offsets (zero at
    pulse 0), in the form synthesize_ir consumes.  At zero wind both
    arrays are exactly zeros/ones.
    """
    if not (np.isfinite(wavelength) and wavelength > 0):
        raise ConfigurationError(f"wavelength must be positive and finite, got {wavelength}")
    vel, amp = surface_series(state, num_pulses, prf, seed)
    doppler = 2.0 * vel / wavelength
    phase = np.zeros_like(doppler)
    if num_pulses > 1:
        phase[:, 1:] = (2.0 * np.pi / prf) * np.cumsum(doppler[:, 1:], axis=1)
    return phase, amp


def wind_doppler_spread(power_map: np.ndarray, doppler_freqs: np.ndarray,
                        mask: np.ndarray | None = None) -> float:
    """Power-weighted Doppler standard deviation of a range-Doppler map.

    `power_map` is linear power, shape (doppler bins, range bins);
    `doppler_freqs` gives the Hz value of each Doppler bin.  `mask`
    restricts the estimate to the clutter ridge when given.
    """
    p = np.asarray(power_map, dtype=np.float64)
    f = np.asarray(doppler_freqs, dtype=np.float64).reshape(-1)
    if p.ndim != 2 or p.shape[0] != f.shape[0]:
        raise ConfigurationError(
            f"power_map rows {p.shape} must match doppler_freqs length {f.shape[0]}")
    if np.any(p < 0):
        raise ValueError("power_map must be non-negative (linear power)")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != p.shape:
            raise ConfigurationError("mask shape must match power_map")
        p = np.where(mask, p, 0.0)
    weights = p.sum(axis=1)
    total = weights.sum()
    if total == 0.0:
        raise ValueError("power map is all zero over the selected bins")
    mean = float(np.dot(weights, f) / total)
    var = float(np.dot(weights, (f - mean) ** 2) / total)
    return float(np.sqrt(var))
