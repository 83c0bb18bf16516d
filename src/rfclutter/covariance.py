"""Space-time covariance clutter model.

A clutter snapshot is x = sum_i gamma_i v_i with gamma_i independent
circular complex Gaussians of variance G_i and v_i the patch steering
vectors; the ensemble covariance is R = sum_i G_i v_i v_i^H.  This is
the statistical (waveform-free) clutter description used by classical
adaptive processing, provided here alongside the physics channel so the
two can be compared.

The covariance export format (magic RFCOV001) is little-endian:

    offset  type     field
    0       8s       magic "RFCOV001"
    8       u32      n (matrix is n x n)
    12      f64*2n^2 interleaved re/im, row-major
"""

from __future__ import annotations

import struct

import numpy as np

from .binfile import read_framed
from .errors import ConfigurationError
from .seeding import STREAM_SNAPSHOT_BATCH, derive_rng

_MAGIC = b"RFCOV001"
_HEADER = struct.Struct("<8sI")


def _check_patch_model(gains: np.ndarray, steerings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gains = np.asarray(gains, dtype=np.float64).reshape(-1)
    steerings = np.atleast_2d(np.asarray(steerings, dtype=np.complex128))
    if steerings.shape[0] != gains.shape[0]:
        raise ConfigurationError(
            f"{gains.shape[0]} gains vs {steerings.shape[0]} steering vectors")
    if np.any(gains < 0):
        raise ValueError("patch power scales must be non-negative")
    return gains, steerings


def draw_snapshots(gains: np.ndarray, steerings: np.ndarray, count: int,
                   seed: int) -> np.ndarray:
    """Batch of snapshots, shape (count, dim); rows are i.i.d. draws."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    gains, steerings = _check_patch_model(gains, steerings)
    rng = derive_rng(seed, STREAM_SNAPSHOT_BATCH)
    scale = np.sqrt(gains / 2.0)
    gamma = (rng.standard_normal((count, gains.shape[0]))
             + 1j * rng.standard_normal((count, gains.shape[0]))) * scale
    return gamma @ steerings


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


def homogeneity_distance(snapshots: np.ndarray) -> float:
    """Relative Frobenius distance between first/second half sample
    covariances.  Small for draws from one stationary model; a simple
    check that a snapshot set shares a single covariance."""
    x = np.atleast_2d(np.asarray(snapshots, dtype=np.complex128))
    k = x.shape[0]
    if k < 2:
        raise ValueError("homogeneity_distance needs at least two snapshots")
    half = k // 2
    r1 = sample_covariance(x[:half])
    r2 = sample_covariance(x[half:])
    denom = 0.5 * (np.linalg.norm(r1) + np.linalg.norm(r2))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(r1 - r2) / denom)


def write_covariance(path, matrix: np.ndarray) -> None:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(f"covariance must be square, got shape {m.shape}")
    n = m.shape[0]
    flat = np.empty(2 * n * n, dtype="<f8")
    flat[0::2] = m.real.ravel()
    flat[1::2] = m.imag.ravel()
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, n))
        f.write(flat.tobytes())


def read_covariance(path) -> np.ndarray:
    (n,), payload = read_framed(path, _HEADER, _MAGIC, "covariance",
                                lambda n: (n, n), 16)
    flat = np.frombuffer(payload, dtype="<f8")
    return (flat[0::2] + 1j * flat[1::2]).reshape(n, n)
