"""Receive array geometry, steering phase ramps and pattern gains.

The receive array is a uniform linear array: element m sits at
m * element_step from element 0.  Directions are unit vectors in the
scene ENU frame pointing from the array toward the source.  Spatial
steering is phase-referenced to element 0 and slow-time phasors to
pulse 0; both are phase ramps exp(j theta k), built by `phase_ramps`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


@dataclass
class ArrayGeometry:
    """A uniform linear array of `num_elements` elements, element m at
    m * element_step from element 0, and the common element pattern:
    cos(theta)^cosine_exponent of the angle off boresight, zero in the
    back hemisphere.  `ula` builds and checks it."""

    num_elements: int
    element_step: np.ndarray             # (3,) m, ENU; zero for one element
    wavelength: float                    # m
    boresight: np.ndarray                # (3,) unit vector
    cosine_exponent: float

    @classmethod
    def ula(cls, num_elements: int, spacing: float, wavelength: float,
            axis=(1.0, 0.0, 0.0), boresight=(0.0, 1.0, 0.0),
            cosine_exponent: float = 1.0) -> "ArrayGeometry":
        """Uniform linear array of elements `spacing` apart along `axis`."""
        if num_elements < 1:
            raise ConfigurationError("array needs at least one element")
        for name, value in (("element spacing", spacing), ("wavelength", wavelength)):
            if not (np.isfinite(value) and value > 0):
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")
        axis = np.asarray(axis, dtype=np.float64).reshape(3)
        n = np.linalg.norm(axis)
        if not (np.isfinite(n) and n > 0):
            raise ConfigurationError("array axis must be a finite non-zero vector")
        boresight = np.asarray(boresight, dtype=np.float64).reshape(3)
        b = np.linalg.norm(boresight)
        if b == 0:
            raise ConfigurationError("boresight must be a non-zero vector")
        if cosine_exponent < 0:
            raise ConfigurationError("cosine_exponent must be non-negative")
        # + 0.0 stores a zero component as +0.0 whatever the axis's sign
        step = spacing * (axis / n) + 0.0 if num_elements > 1 else np.zeros(3)
        return cls(num_elements=num_elements, element_step=step, wavelength=wavelength,
                   boresight=boresight / b, cosine_exponent=cosine_exponent)


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
    """theta_i = 2 pi / lambda <element_step, d_i>, the ramp step of each direction."""
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    return (2.0 * np.pi / array.wavelength) * (directions @ array.element_step)


def spatial_steering_many(array: ArrayGeometry, directions: np.ndarray) -> np.ndarray:
    """Ideal spatial steering entries for many directions, shape (k, n).

    Entry (i, m) = exp(j 2 pi / lambda <m element_step, d_i>); element 0
    is the phase reference, so column 0 is identically 1.  Row i is the
    phase ramp of theta_i = 2 pi / lambda <element_step, d_i>.
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
