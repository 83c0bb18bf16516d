"""Space-time covariance clutter model.

A clutter snapshot is x = sum_i gamma_i v_i with gamma_i independent
circular complex Gaussians of variance G_i and v_i the patch steering
vectors; the ensemble covariance is R = sum_i G_i v_i v_i^H.  This is
the statistical (waveform-free) clutter description used by classical
adaptive processing, provided here alongside the physics channel so the
two can be compared.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError


def _check_patch_model(gains: np.ndarray, steerings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gains = np.asarray(gains, dtype=np.float64).reshape(-1)
    steerings = np.atleast_2d(np.asarray(steerings, dtype=np.complex128))
    if steerings.shape[0] != gains.shape[0]:
        raise ConfigurationError(
            f"{gains.shape[0]} gains vs {steerings.shape[0]} steering vectors")
    if np.any(gains < 0):
        raise ValueError("patch power scales must be non-negative")
    return gains, steerings


def clutter_covariance(gains: np.ndarray, steerings: np.ndarray) -> np.ndarray:
    """Ensemble covariance R = sum_i G_i v_i v_i^H, exactly Hermitian.

    Zero-gain (shadowed) patches are skipped before the accumulation,
    so adding or removing them cannot perturb the result.
    """
    gains, steerings = _check_patch_model(gains, steerings)
    dim = steerings.shape[1]
    keep = gains > 0
    v = steerings[keep]
    g = gains[keep]
    if v.shape[0] == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    r = (v.T * g) @ v.conj()
    return 0.5 * (r + r.conj().T)


def sample_covariance(snapshots: np.ndarray) -> np.ndarray:
    """Unweighted sample covariance (1/K) sum_k x_k x_k^H over rows."""
    x = np.atleast_2d(np.asarray(snapshots, dtype=np.complex128))
    k = x.shape[0]
    if k == 0 or x.size == 0:
        raise ValueError("sample_covariance needs at least one snapshot")
    r = (x.T @ x.conj()) / k
    return 0.5 * (r + r.conj().T)
