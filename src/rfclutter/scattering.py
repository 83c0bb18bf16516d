"""Reflectivity models and the bistatic patch power budget.

The default reflectivity model is constant-gamma: sigma0 = gamma *
sin(grazing).  A table entry may instead carry polynomial coefficients
giving sigma0 in dB as a function of grazing angle in radians, for
land-cover classes where the constant-gamma shape is too crude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

FOUR_PI_CUBED = (4.0 * math.pi) ** 3


@dataclass(frozen=True)
class Reflectivity:
    """Reflectivity entry for one (land-cover class, band) pair."""

    gamma_db: float                       # constant-gamma coefficient, dB
    poly_db: tuple[float, ...] = ()       # optional sigma0(psi) polynomial, dB, psi in rad

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.gamma_db, *self.poly_db)):
            raise ConfigurationError("reflectivity gamma_db and coefficients must be finite")


@dataclass
class ScatteringTable:
    """Maps (landcover_class, band) to a reflectivity model."""

    entries: dict[tuple[int, str], Reflectivity] = field(default_factory=dict)

    def lookup(self, landcover_class: int, band: str) -> Reflectivity:
        try:
            return self.entries[(int(landcover_class), band)]
        except KeyError:
            raise ConfigurationError(
                f"no scattering entry for class {landcover_class} in band {band!r}") from None

    def sigma0_many(self, classes: np.ndarray, band: str, grazing: np.ndarray) -> np.ndarray:
        """Normalized radar cross-section (m^2/m^2) of each patch, from its
        land-cover class and grazing angle (rad): the entry's polynomial
        in dB when it has one, else max(0, gamma sin(grazing)).  A
        polynomial that overflows gives inf or NaN, which the link
        budget rejects."""
        classes = np.asarray(classes)
        grazing = np.asarray(grazing, dtype=np.float64)
        out = np.empty(grazing.shape, dtype=np.float64)
        for cls in np.unique(classes):
            entry = self.lookup(int(cls), band)
            sel = classes == cls
            g = grazing[sel]
            if entry.poly_db:
                db = np.zeros_like(g)
                with np.errstate(over="ignore", invalid="ignore"):
                    for k, p in enumerate(entry.poly_db):
                        db += p * g ** k
                    out[sel] = 10.0 ** (db / 10.0)
            else:
                gamma = 10.0 ** (entry.gamma_db / 10.0)
                out[sel] = np.maximum(0.0, gamma * np.sin(g))
        return out


# Default land-cover codes used by the built-in scenarios.
WATER = 0
GRASS = 1
FOREST = 2
URBAN = 3
BARE = 4
BUILDING = 5   # discrete structures; strongly reflective

_DEFAULT_ENTRIES = {
    # X band constant-gamma settings; plausible relative ordering
    # (urban > forest > grass > bare > water), not calibrated truth.
    (WATER, "X"): Reflectivity(gamma_db=-28.0),
    (GRASS, "X"): Reflectivity(gamma_db=-15.0),
    (FOREST, "X"): Reflectivity(gamma_db=-10.0),
    (URBAN, "X"): Reflectivity(gamma_db=-5.0),
    (BARE, "X"): Reflectivity(gamma_db=-20.0),
    (BUILDING, "X"): Reflectivity(gamma_db=10.0),
}


def default_table() -> ScatteringTable:
    return ScatteringTable(entries=dict(_DEFAULT_ENTRIES))


def patch_power_scales(sigma0: np.ndarray, area: np.ndarray, tx_gain: np.ndarray,
                       rx_gain: np.ndarray, wavelength: float,
                       r_tx: np.ndarray, r_rx: np.ndarray) -> np.ndarray:
    """Two-way power scale G of each patch via the bistatic range equation:

        G = tx_gain * rx_gain * wavelength^2 * sigma0 * area
            / ((4 pi)^3 * r_tx^2 * r_rx^2)

    For a point target pass the RCS as sigma0 with area = 1.  Shadowing
    is the caller's: `pipeline.patch_budget` zeroes the gains of the
    patches it finds shadowed.
    """
    if wavelength <= 0:
        raise ConfigurationError(f"wavelength must be positive, got {wavelength}")
    r_tx = np.asarray(r_tx, dtype=np.float64)
    r_rx = np.asarray(r_rx, dtype=np.float64)
    if np.any(r_tx <= 0) or np.any(r_rx <= 0):
        raise ValueError("ranges must be positive")
    return (np.asarray(tx_gain, dtype=np.float64) * np.asarray(rx_gain, dtype=np.float64)
            * wavelength ** 2 * np.asarray(sigma0, dtype=np.float64)
            * np.asarray(area, dtype=np.float64)
            / (FOUR_PI_CUBED * r_tx ** 2 * r_rx ** 2))


# --- table file format -------------------------------------------------------
#
# UTF-8 text, one entry per line:
#
#   <class:int> <band:str> <gamma_db:float> [p0 p1 p2 ...]
#
# Trailing floats, when present, are polynomial coefficients for
# sigma0 in dB as a function of grazing angle in radians (ascending
# powers); they override the constant-gamma model for that entry.
# Blank lines and '#' comments are skipped.  Each (class, band) pair
# has one line.


def read_scattering_table(path) -> ScatteringTable:
    """The table a file holds; a second line for one (class, band) is a
    ConfigurationError naming both lines."""
    entries: dict[tuple[int, str], Reflectivity] = {}
    first_line: dict[tuple[int, str], int] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) < 3:
                raise ConfigurationError(
                    f"{path}: line {lineno}: expected 'class band gamma_db [coeffs...]'")
            try:
                cls = int(parts[0])
                gamma_db = float(parts[2])
                poly = tuple(float(p) for p in parts[3:])
                entry = Reflectivity(gamma_db=gamma_db, poly_db=poly)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{path}: line {lineno}: bad numeric field ({exc})") from exc
            key = (cls, parts[1])
            if key in first_line:
                raise ConfigurationError(
                    f"{path}: line {lineno}: class {cls} in band {parts[1]} repeats "
                    f"line {first_line[key]}")
            first_line[key] = lineno
            entries[key] = entry
    if not entries:
        raise ConfigurationError(f"{path}: empty scattering table")
    return ScatteringTable(entries=entries)
