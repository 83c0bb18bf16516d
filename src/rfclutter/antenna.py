"""Receive array geometry, steering phase ramps and pattern gains.

The receive array is a uniform linear array: element m sits at
p_0 + m (p_1 - p_0).  Directions are unit vectors in the scene ENU
frame pointing from the array toward the source.  Spatial steering is
phase-referenced to element 0 and slow-time phasors to pulse 0; both
are phase ramps exp(j theta k), built by `phase_ramps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError


@dataclass
class ArrayGeometry:
    """Element positions of a uniform linear array and the common
    element pattern.

    The positions must satisfy p_m - p_0 = m (p_1 - p_0) to within 1e-9
    of the aperture |p_{n-1} - p_0|, with distinct elements; any other
    layout is a `ConfigurationError`.  The element pattern is
    cos(theta)^cosine_exponent of the angle off boresight, zero in the
    back hemisphere.
    """

    element_positions: np.ndarray        # (n, 3) m, array frame == ENU frame
    wavelength: float                    # m
    boresight: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    cosine_exponent: float = 1.0

    def __post_init__(self):
        self.element_positions = np.atleast_2d(
            np.asarray(self.element_positions, dtype=np.float64))
        if self.element_positions.ndim != 2 or self.element_positions.shape[1] != 3:
            raise ConfigurationError("element_positions must have shape (n, 3)")
        if self.num_elements == 0:
            raise ConfigurationError("array needs at least one element")
        if not np.all(np.isfinite(self.element_positions)):
            raise ConfigurationError("element positions must be finite")
        rel = self.element_positions - self.element_positions[0]
        off_grid = rel - np.outer(np.arange(self.num_elements), self.element_step)
        aperture = np.linalg.norm(rel[-1])
        if self.num_elements > 1 and (
                aperture == 0.0 or np.linalg.norm(off_grid, axis=1).max() > 1e-9 * aperture):
            raise ConfigurationError(
                "element positions must form a uniform linear array, p_m - p_0 = m (p_1 - p_0)")
        if not (np.isfinite(self.wavelength) and self.wavelength > 0):
            raise ConfigurationError(
                f"wavelength must be positive and finite, got {self.wavelength}")
        self.boresight = np.asarray(self.boresight, dtype=np.float64).reshape(3)
        n = np.linalg.norm(self.boresight)
        if n == 0:
            raise ConfigurationError("boresight must be a non-zero vector")
        self.boresight = self.boresight / n
        if self.cosine_exponent < 0:
            raise ConfigurationError("cosine_exponent must be non-negative")

    @property
    def num_elements(self) -> int:
        return self.element_positions.shape[0]

    @property
    def element_step(self) -> np.ndarray:
        """p_1 - p_0, the element spacing vector; zero for one element."""
        p = self.element_positions
        return p[min(1, len(p) - 1)] - p[0]

    @classmethod
    def ula(cls, num_elements: int, spacing: float, wavelength: float,
            axis=(1.0, 0.0, 0.0), boresight=(0.0, 1.0, 0.0),
            cosine_exponent: float = 1.0) -> "ArrayGeometry":
        """Uniform linear array along `axis`, element 0 at the origin."""
        if spacing <= 0:
            raise ConfigurationError(f"element spacing must be positive, got {spacing}")
        axis = np.asarray(axis, dtype=np.float64).reshape(3)
        n = np.linalg.norm(axis)
        if n == 0:
            raise ConfigurationError("array axis must be a non-zero vector")
        axis = axis / n
        positions = np.outer(np.arange(num_elements) * spacing, axis)
        return cls(element_positions=positions, wavelength=wavelength,
                   boresight=np.asarray(boresight, dtype=np.float64),
                   cosine_exponent=cosine_exponent)


def phase_ramps(theta, count: int) -> np.ndarray:
    """Rows exp(j theta_i k), k = 0..count-1, shape (len(theta), count).

    Built by doubling along k: columns [w, 2w) are columns [0, w) times
    exp(j theta w), for w = 1, 2, 4, ...  Each theta * w is exact in
    binary, so entry k is a product of at most ceil(log2 count)
    correctly rounded exponentials, where exp(j fl(theta * k)) would
    carry the rounding of its argument.

    The doubling runs over the rows of a (count, len(theta)) buffer, so
    every multiply streams over contiguous memory; the result is that
    buffer's transpose (a Fortran-ordered view).
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    out = np.empty((count, theta.size), dtype=np.complex128)
    out[:1] = 1.0
    width = 1
    while width < count:
        step = min(width, count - width)
        np.multiply(out[:step], np.exp(1j * (theta * width)), out=out[width:width + step])
        width *= 2
    return out.T


def phase_ramp_column(theta, k: int) -> np.ndarray:
    """Column k of `phase_ramps(theta, count)` for any count > k, bit for
    bit, without the other columns: 1 times exp(j theta w) for each set
    bit w of k, lowest first, as the doubling multiplies them."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.ones(theta.shape, dtype=np.complex128)
    width = 1
    while width <= k:
        if k & width:
            out *= np.exp(1j * (theta * width))
        width *= 2
    return out


def _steering_phases(array: ArrayGeometry, directions: np.ndarray) -> np.ndarray:
    """theta_i = 2 pi / lambda <p_1 - p_0, d_i>, the ramp step of each direction."""
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    return (2.0 * np.pi / array.wavelength) * (directions @ array.element_step)


def spatial_steering_many(array: ArrayGeometry, directions: np.ndarray) -> np.ndarray:
    """Ideal spatial steering entries for many directions, shape (k, n).

    Entry (i, m) = exp(j 2 pi / lambda <p_m - p_0, d_i>); element 0 is
    the phase reference, so column 0 is identically 1.  On a uniform
    linear array row i is the phase ramp of
    theta_i = 2 pi / lambda <p_1 - p_0, d_i>.
    """
    return phase_ramps(_steering_phases(array, directions), array.num_elements)


def spatial_steering_column(array: ArrayGeometry, directions: np.ndarray,
                            element: int) -> np.ndarray:
    """Column `element` of `spatial_steering_many`, bit for bit, shape (k,)."""
    return phase_ramp_column(_steering_phases(array, directions), element)


def element_gains(array: ArrayGeometry, directions: np.ndarray) -> np.ndarray:
    """The element pattern cos^p(angle off boresight) over rows of
    `directions`, zero in the back hemisphere."""
    cos_off = directions @ array.boresight
    return np.where(cos_off > 0.0, np.maximum(cos_off, 0.0) ** array.cosine_exponent, 0.0)


def uniform_pattern_gains(array: ArrayGeometry, directions: np.ndarray) -> np.ndarray:
    """Power gain |sum_n s_n(d)|^2 cos^p(angle off boresight) of
    uniform weights over rows of `directions`, in closed form.

    The uniform array factor |sum_k exp(j psi k)|^2 over N elements is
    sin^2(N psi / 2) / sin^2(psi / 2), with the limit N^2 where
    sin(psi / 2) = 0.  psi is each direction's ramp step, reduced to
    [-pi, pi] so that grating lobes meet the limit too.  No (k x N)
    steering matrix is built; the oracle in tests/oracles.py that it is
    checked against builds it.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    n = array.num_elements
    psi = _steering_phases(array, directions)
    half = 0.5 * (psi - 2.0 * np.pi * np.rint(psi / (2.0 * np.pi)))
    denominator = np.sin(half)
    flat = denominator == 0.0
    af = np.square(np.sin(n * half) / np.where(flat, 1.0, denominator))
    af[flat] = float(n * n)
    return af * element_gains(array, directions)
