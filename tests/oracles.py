"""Test oracles: scalar references and fixture writers.

The simulator keeps one implementation of each concept, the vector
form its pipeline runs.  The routines here are the references those
forms are checked against: one point, one ray or one patch at a time,
in the plainest arithmetic, plus writers of the text rasters,
scattering tables and hostile channel files that the tests build their
fixtures from.  Where a
test asks for bit-for-bit agreement, the reference is the arithmetic
the vector form must reproduce.

Tests import them as `from oracles import ...`.
"""

from __future__ import annotations

import math
import struct

import numpy as np
from scipy.fft import next_fast_len

from rfclutter.antenna import (ArrayGeometry, element_gains, phase_ramps,
                               spatial_steering_many)
from rfclutter.channel import SPEED_OF_LIGHT, StochasticModel
from rfclutter.errors import ConfigurationError
from rfclutter.scattering import FOUR_PI_CUBED, ScatteringTable
from rfclutter.seeding import (STREAM_CLUTTER, STREAM_NOISE, derive_rng, normal_pair, philox_key,
                               uniforms)
from rfclutter.terrain import (LOS_BLOCK, _BLEND_MARGIN_EPS, ClassGrid, ElevationGrid,
                               PlatformState)
from rfclutter.waveform import Waveform

# The stream id of the covariance snapshots, distinct from the ids in
# `rfclutter.seeding`.
STREAM_SNAPSHOT_BATCH = 5


# --- antenna ------------------------------------------------------------------

def _check_unit(direction: np.ndarray) -> np.ndarray:
    direction = np.asarray(direction, dtype=np.float64).reshape(3)
    n = np.linalg.norm(direction)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |d| = {n}")
    return direction


def spatial_steering(array: ArrayGeometry, direction) -> np.ndarray:
    """Spatial steering vector toward a unit direction, shape (N,)."""
    direction = _check_unit(direction)
    return spatial_steering_many(array, direction)[0]


def wrap_normalized_doppler(f: float) -> float:
    """Wrap a normalized Doppler (cycles/pulse) into [-0.5, 0.5)."""
    return float((f + 0.5) % 1.0 - 0.5)


def temporal_steering(normalized_doppler: float, num_pulses: int) -> np.ndarray:
    """Temporal steering vector, entry m = exp(j 2 pi f m), m = 0..M-1."""
    if num_pulses < 1:
        raise ConfigurationError(f"num_pulses must be >= 1, got {num_pulses}")
    if not -0.5 <= normalized_doppler < 0.5:
        raise ValueError(
            f"normalized Doppler {normalized_doppler} outside [-0.5, 0.5); "
            "wrap it first (wrap_normalized_doppler)")
    return phase_ramps(2.0 * np.pi * normalized_doppler, num_pulses)[0]


def space_time_steering(spatial: np.ndarray, temporal: np.ndarray) -> np.ndarray:
    """Kronecker product temporal (x) spatial: entry (m*n_elems + n) = t_m * s_n."""
    return np.kron(temporal, spatial)


def pattern_gain(array: ArrayGeometry, weights: np.ndarray, direction) -> float:
    """Power gain |w^H s(d)|^2 * cos^p(angle off boresight).

    Zero in the back hemisphere.
    """
    direction = _check_unit(direction)
    weights = np.asarray(weights, dtype=np.complex128).reshape(-1)
    if weights.shape[0] != array.num_elements:
        raise ConfigurationError(
            f"weights length {weights.shape[0]} != element count {array.num_elements}")
    cos_off = float(np.dot(direction, array.boresight))
    if cos_off <= 0.0:
        return 0.0
    response = spatial_steering_many(array, direction)[0]
    af = abs(np.vdot(weights, response)) ** 2
    return af * cos_off ** array.cosine_exponent


def pattern_gains(array: ArrayGeometry, weights: np.ndarray,
                  directions: np.ndarray) -> np.ndarray:
    """`pattern_gain` over rows of `directions`, through the whole
    (k x N) steering matrix: the reference of the closed form
    `uniform_pattern_gains`."""
    weights = np.asarray(weights, dtype=np.complex128).reshape(-1)
    if weights.shape[0] != array.num_elements:
        raise ConfigurationError(
            f"weights length {weights.shape[0]} != element count {array.num_elements}")
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    af = np.abs(spatial_steering_many(array, directions) @ weights.conj()) ** 2
    return af * element_gains(array, directions)


# --- channel ------------------------------------------------------------------

def bistatic_delay_doppler(position, velocity, tx: PlatformState, rx: PlatformState,
                           wavelength: float) -> tuple[float, float]:
    """Propagation delay and Doppler of a point at `position` moving with
    `velocity`, for the given transmit and receive platforms.

    Doppler is positive for closing geometry; with tx == rx and a static
    point it reduces to 2 <v_platform, u> / lambda with u the unit
    vector from the platform to the point.
    """
    if wavelength <= 0:
        raise ConfigurationError(f"wavelength must be positive, got {wavelength}")
    position = np.asarray(position, dtype=np.float64).reshape(3)
    velocity = np.asarray(velocity, dtype=np.float64).reshape(3)
    d_tx = position - tx.position
    d_rx = position - rx.position
    r_tx = float(np.linalg.norm(d_tx))
    r_rx = float(np.linalg.norm(d_rx))
    if r_tx == 0.0 or r_rx == 0.0:
        raise ValueError("point coincides with a platform")
    u_tx = d_tx / r_tx
    u_rx = d_rx / r_rx
    delay = (r_tx + r_rx) / SPEED_OF_LIGHT
    doppler = (float(np.dot(tx.velocity - velocity, u_tx))
               + float(np.dot(rx.velocity - velocity, u_rx))) / wavelength
    return delay, doppler


def patch_response(center, patch_id: int, power_scale: float, tx: PlatformState,
                   rx: PlatformState, wavelength: float, model: StochasticModel,
                   realization: int = 0) -> tuple[float, float, complex]:
    """(delay, Doppler, amplitude) of one patch for one CPI realization.

    amplitude = sqrt(G) * exp(j phi) with phi uniform per (patch,
    realization) under the model seed, or derived from the path length
    when the model is deterministic.  Both draws come from the patch's
    first Philox block (see `rfclutter.seeding`): word 0 is the phase,
    words 1 and 2 the Doppler jitter by Box-Muller.  It draws through
    numpy's own `Philox` bit generator.
    """
    if power_scale < 0:
        raise ValueError(f"power_scale must be non-negative, got {power_scale}")
    delay, doppler = bistatic_delay_doppler(center, (0.0, 0.0, 0.0), tx, rx, wavelength)
    words = np.random.Philox(key=philox_key(model.seed, STREAM_CLUTTER),
                             counter=(0, patch_id, realization, 0)).random_raw(3)
    if model.deterministic_phase:
        phase = -2.0 * np.pi * (delay * SPEED_OF_LIGHT) / wavelength
    else:
        phase = 2.0 * np.pi * uniforms(words[0])
    if model.doppler_std_hz > 0:
        doppler += model.doppler_std_hz * float(normal_pair(words[1:2], words[2:3])[0][0])
    amplitude = math.sqrt(power_scale) * complex(np.exp(1j * phase))
    return delay, doppler, amplitude


# --- terrain ------------------------------------------------------------------

def grazing_angle(center, normal, observer) -> float:
    """Angle (rad) between the center->observer ray and the local
    horizontal plane of a facet with the given unit normal.  Positive
    when the observer is on the outward side of the facet; pi/2 for an
    observer straight along the normal.
    """
    los = (np.asarray(observer, dtype=np.float64).reshape(3)
           - np.asarray(center, dtype=np.float64).reshape(3))
    r = np.linalg.norm(los)
    if r == 0.0:
        raise ValueError("observer coincides with the patch center")
    s = float(np.dot(los, np.asarray(normal, dtype=np.float64).reshape(3)) / r)
    return math.asin(min(1.0, max(-1.0, s)))


def line_of_sight(dem: ElevationGrid, observer, point,
                  clearance: float = 0.0, step: float | None = None) -> bool:
    """True when the straight ray observer->point clears the terrain.

    The terrain is sampled between the endpoints on a uniform grid no
    coarser than `step` (default cell_size / 2); the endpoints
    themselves are excluded, since both usually sit on or near the
    surface.  The ray is raised by `clearance` meters before the
    comparison.  Samples off the raster see no terrain, so they cannot
    occlude.  Every sample is marched: the reference of `lines_of_sight`.
    """
    obs = np.asarray(observer, dtype=np.float64).reshape(3)
    pt = np.asarray(point, dtype=np.float64).reshape(3)
    if step is None:
        step = dem.cell_size / 2.0
    if not step > 0:
        raise ConfigurationError(f"line-of-sight step must be positive, got {step}")
    if not math.isfinite(clearance):
        raise ConfigurationError(f"line-of-sight clearance must be finite, got {clearance}")
    dist = float(np.hypot(pt[0] - obs[0], pt[1] - obs[1]))
    n_interior = max(0, math.ceil(dist / step) - 1)
    if n_interior == 0:
        return True
    t = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    xs = obs[0] + t * (pt[0] - obs[0])
    ys = obs[1] + t * (pt[1] - obs[1])
    ray_z = obs[2] + t * (pt[2] - obs[2])
    blocked = dem.heights_at(xs, ys) > ray_z + clearance
    # between two on-raster endpoints every sample is on the raster
    if not bool(np.all(dem.within_extent([obs[0], pt[0]], [obs[1], pt[1]]))):
        blocked &= dem.within_extent(xs, ys)
    return not bool(np.any(blocked))


def reshape_block_bound(dem: ElevationGrid) -> np.ndarray:
    """`terrain._block_bound` with the block maximum taken as a
    reduction over the reshaped raster's (1, 3) axes: its reference."""
    b = LOS_BLOCK
    rows, cols = -(-dem.nrows // b), -(-dem.ncols // b)
    padded = np.full((rows * b, cols * b), -np.inf)
    padded[:dem.nrows, :dem.ncols] = dem.heights
    top = padded.reshape(rows, b, cols, b).max(axis=(1, 3))
    top[:-1] = np.maximum(top[:-1], top[1:])
    top[:, :-1] = np.maximum(top[:, :-1], top[:, 1:])
    eps = np.finfo(np.float64).eps
    return top + _BLEND_MARGIN_EPS * eps * float(np.abs(dem.heights).max())


def write_dem(path, dem: ElevationGrid) -> None:
    """An elevation raster in the text layout `rfclutter.terrain.read_dem` reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"nrows {dem.nrows}\n")
        f.write(f"ncols {dem.ncols}\n")
        f.write(f"cellsize {dem.cell_size!r}\n")
        f.write(f"origin {dem.origin_lat!r} {dem.origin_lon!r}\n")
        for row in dem.heights:
            f.write(" ".join(repr(float(v)) for v in row) + "\n")


def write_landcover(path, grid: ClassGrid) -> None:
    """A land-cover raster in the text layout `rfclutter.terrain.read_landcover` reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"nrows {grid.nrows}\n")
        f.write(f"ncols {grid.ncols}\n")
        f.write(f"cellsize {grid.cell_size!r}\n")
        f.write(f"origin {grid.origin_lat!r} {grid.origin_lon!r}\n")
        for row in grid.classes:
            f.write(" ".join(str(int(v)) for v in row) + "\n")


# --- impulse-response files ------------------------------------------------------

IR_HEADER = struct.Struct("<8sIIIdddI")   # RFGIR002: magic, N, M, L, fs, origin, PRF, K


def ir_blob(n: int, m: int, l: int, support, payload_taps: int | None = None,
            k: int | None = None) -> bytes:
    """The bytes of an RFGIR002 file with the given header and support
    words, the header's K defaulting to len(support), followed by
    n * m * payload_taps (default K) complex64 taps of value 1."""
    k = len(support) if k is None else k
    payload_taps = k if payload_taps is None else payload_taps
    return (IR_HEADER.pack(b"RFGIR002", n, m, l, 5e6, 0.0, 1e3, k)
            + np.asarray(support, dtype="<u4").tobytes()
            + np.ones(n * m * payload_taps, dtype="<c8").tobytes())


# name -> (the bytes of a hostile RFGIR002 file, the message it must raise);
# the valid file they vary is ir_blob(2, 3, 6, [0, 2, 3, 5])
HOSTILE_IR_FILES = {
    "unsorted-support": (ir_blob(2, 3, 6, [2, 0, 3, 5]), "ascend"),
    "duplicated-support": (ir_blob(2, 3, 6, [0, 2, 2, 5]), "ascend"),
    "support-out-of-range": (ir_blob(2, 3, 6, [0, 2, 3, 6]), "ascend"),
    "more-occupied-than-taps": (ir_blob(2, 3, 6, list(range(7))), "occupied"),
    "truncated-support": (ir_blob(2, 3, 6, [0, 2, 3, 5])[:IR_HEADER.size + 6], "truncated"),
    "nmk-over-the-file-size": (ir_blob(2, 3, 6, [0, 2, 3, 5], payload_taps=3), "truncated"),
    "nmk-under-the-file-size": (ir_blob(2, 3, 6, [0, 2, 3, 5], payload_taps=5),
                                "trailing bytes"),
    "huge-nmk": (ir_blob(2 ** 20, 2 ** 20, 6, [0, 2, 3, 5], payload_taps=0), "truncated"),
}


# --- scattering ---------------------------------------------------------------

def sigma0(table: ScatteringTable, landcover_class: int, band: str, grazing: float) -> float:
    """Normalized radar cross-section (m^2/m^2) at the given grazing angle."""
    if not -math.pi / 2 <= grazing <= math.pi / 2 + 1e-12:
        raise ValueError(f"grazing angle {grazing} outside [-pi/2, pi/2]")
    entry = table.lookup(landcover_class, band)
    if entry.poly_db:
        db = 0.0
        for k, p in enumerate(entry.poly_db):
            db += p * grazing ** k
        return 10.0 ** (db / 10.0)
    gamma = 10.0 ** (entry.gamma_db / 10.0)
    return max(0.0, gamma * math.sin(grazing))


def patch_power_scale(sigma0: float, area: float, tx_gain: float, rx_gain: float,
                      wavelength: float, r_tx: float, r_rx: float) -> float:
    """Two-way power scale G for one patch via the bistatic range equation:

        G = tx_gain * rx_gain * wavelength^2 * sigma0 * area
            / ((4 pi)^3 * r_tx^2 * r_rx^2)

    For a point target pass the RCS as sigma0 with area = 1.
    """
    if r_tx <= 0 or r_rx <= 0:
        raise ValueError(f"ranges must be positive, got r_tx={r_tx}, r_rx={r_rx}")
    if sigma0 < 0 or area < 0 or tx_gain < 0 or rx_gain < 0:
        raise ValueError("sigma0, area and gains must be non-negative")
    if wavelength <= 0:
        raise ConfigurationError(f"wavelength must be positive, got {wavelength}")
    return (tx_gain * rx_gain * wavelength ** 2 * sigma0 * area
            / (FOUR_PI_CUBED * r_tx ** 2 * r_rx ** 2))


def write_scattering_table(path, table: ScatteringTable) -> None:
    """A table in the text layout `rfclutter.scattering.read_scattering_table` reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for (cls, band), entry in sorted(table.entries.items()):
            line = f"{cls} {band} {entry.gamma_db!r}"
            if entry.poly_db:
                line += " " + " ".join(repr(p) for p in entry.poly_db)
            f.write(line + "\n")


# --- receiver and range-Doppler processing -------------------------------------

def convolve_pulse(taps: np.ndarray, waveform_samples: np.ndarray) -> np.ndarray:
    """Linear convolution of channel taps with one pulse, length L + P - 1.

    FFT implementation with enough zero padding that it matches direct
    convolution to floating-point accuracy.
    """
    taps = np.asarray(taps, dtype=np.complex128).reshape(-1)
    wf = np.asarray(waveform_samples, dtype=np.complex128).reshape(-1)
    if taps.size == 0 or wf.size == 0:
        raise ConfigurationError("convolve_pulse needs non-empty inputs")
    n_out = taps.size + wf.size - 1
    nfft = next_fast_len(n_out)
    out = np.fft.ifft(np.fft.fft(taps, nfft) * np.fft.fft(wf, nfft))
    return out[:n_out]


def convolve_lines(taps: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Every (channel, pulse) line of an (N, M, L) tap array convolved
    by `np.convolve` with its pulse's waveform row (`rows` is (1, P),
    shared by the pulses, or (M, P)): (N, M, L + P - 1) complex128."""
    n, m, _ = taps.shape
    rows = np.broadcast_to(np.asarray(rows, dtype=np.complex128), (m, np.shape(rows)[-1]))
    return np.array([[np.convolve(taps[i, j].astype(np.complex128), rows[j])
                      for j in range(m)] for i in range(n)])


def support_rule_samples(ir: ChannelImpulseResponse, waveforms) -> np.ndarray:
    """Whole-cube oracle with the support rule, (N, M, L + P - 1)
    complex128, zero outside the support's window [S[0], S[-1] + P - 1]:
    a channel whose support S satisfies |S| P <= nfft, nfft the whole
    window's transform length, is summed directly, tap by tap in
    ascending order, into zeros; any other channel's window S[0] ..
    S[-1] goes through one batched FFT of length next_fast_len(S[-1] -
    S[0] + P)."""
    wfs = [waveforms] if isinstance(waveforms, Waveform) else list(waveforms)
    rows = np.stack([w.samples for w in wfs])
    p = rows.shape[1]
    n_out = ir.num_taps + p - 1
    out = np.zeros((ir.num_channels, ir.num_pulses, n_out), dtype=np.complex128)
    dense = ir.dense()
    if ir.support.size * p <= next_fast_len(n_out):
        for s in ir.support:
            out[:, :, s:s + p] += dense[:, :, s, None] * rows
        return out
    lo, hi = ir.support[0], ir.support[-1]
    width = hi - lo + p
    size = next_fast_len(width)
    taps_f = np.fft.fft(dense[:, :, lo:hi + 1].astype(np.complex128), size, axis=2)
    window = np.fft.ifft(taps_f * np.fft.fft(rows, size, axis=1)[None], axis=2)
    out[:, :, lo:lo + width] = window[:, :, :width]
    return out


def noise_samples(cpi_index: int, num_channels: int, num_pulses: int,
                  num_range_samples: int, noise_power: float, seed: int) -> np.ndarray:
    """Whole-cube noise oracle, (1, N, M, R) complex128: channel n draws
    M R float64 uniforms u, then M R float32 uniforms v, from
    derive_rng(seed, STREAM_NOISE, 0, cpi_index, n); in float32 the
    radius is sqrt(-2 ln(1 - u)) and the angle 2 pi v, their complex64
    Box-Muller pair is scaled in complex128 by sqrt(noise_power / 2),
    and zero noise power gives a zero cube."""
    shape = (num_channels, num_pulses, num_range_samples)
    if noise_power == 0.0:
        return np.zeros((1,) + shape, dtype=np.complex128)
    rngs = [derive_rng(seed, STREAM_NOISE, 0, cpi_index, n) for n in range(num_channels)]
    u = np.stack([g.random(shape[1:]) for g in rngs])
    v = np.stack([g.random(shape[1:], dtype=np.float32) for g in rngs])
    radius = np.sqrt(np.float32(-2.0) * np.log((1.0 - u).astype(np.float32)))
    angle = np.float32(2.0 * np.pi) * v
    z = np.empty(shape, dtype=np.complex64)
    z.real = radius * np.cos(angle)
    z.imag = radius * np.sin(angle)
    return (z * np.sqrt(noise_power / 2.0))[None]


def oracle_lines(terms, noise_power, seed, cpi_index=0) -> np.ndarray:
    """Whole-cube oracle of the receiver's lines, (1, N, M, R)
    complex128: the noise, then each (channel, waveforms) term
    convolved under the support rule and added in order over its window
    [S[0], S[-1] + P - 1] (the rest of the range window receives
    nothing from it)."""
    signals = [support_rule_samples(ir, wfs) for ir, wfs in terms]
    n, m, r = signals[0].shape
    cube = noise_samples(cpi_index, n, m, r, noise_power, seed)[0]
    for (ir, _), signal in zip(terms, signals):
        if ir.support.size:
            lo, hi = ir.support[0], ir.support[-1] + r - ir.num_taps    # r - L = P - 1
            cube[:, :, lo:hi + 1] += signal[:, :, lo:hi + 1]
    return cube[None]


def oracle_cube(terms, noise_power, seed, cpi_index=0) -> np.ndarray:
    """The receiver's cube, (1, N, M, R) complex64: `oracle_lines`
    rounded once, as a cube file rounds them."""
    return oracle_lines(terms, noise_power, seed, cpi_index).astype(np.complex64)


def channel_ordered_sum(samples: np.ndarray, weights) -> np.ndarray:
    """Beamformed (M, R) complex64 pulses of (N, M, R) complex64 samples:
    y = 0, then y = y + x_n conj(w_n) for n = 0, 1, ... over whole
    arrays, with the weights rounded to complex64."""
    cw = np.conj(np.asarray(weights, dtype=np.complex128)).astype(np.complex64)
    y = np.zeros(samples.shape[1:], dtype=np.complex64)
    for n in range(samples.shape[0]):
        y = y + samples[n] * cw[n]
    return y


def doppler_bin_for(doppler_hz: float, prf: float, num_pulses: int) -> int:
    """Doppler bin index nearest a Doppler frequency (wrapped)."""
    return int(round(num_pulses * doppler_hz / prf)) % num_pulses


def range_bin_for(delay: float, sample_rate: float, delay_origin: float = 0.0) -> int:
    """Compressed range bin nearest an absolute propagation delay."""
    return int(round((delay - delay_origin) * sample_rate))


# --- covariance ---------------------------------------------------------------
#
# The statistical, waveform-free clutter model of classical adaptive
# processing: a clutter snapshot is x = sum_i gamma_i v_i with gamma_i
# independent circular complex Gaussians of variance G_i and v_i the
# patch steering vectors, so the ensemble covariance is
# R = sum_i G_i v_i v_i^H.

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


def draw_snapshots(gains: np.ndarray, steerings: np.ndarray, count: int,
                   seed: int) -> np.ndarray:
    """Batch of snapshots x = sum_i gamma_i v_i, shape (count, dim);
    rows are i.i.d. draws with gamma_i circular Gaussian of variance
    G_i, so their ensemble covariance is `clutter_covariance`."""
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    gains, steerings = _check_patch_model(gains, steerings)
    rng = derive_rng(seed, STREAM_SNAPSHOT_BATCH)
    scale = np.sqrt(gains / 2.0)
    gamma = (rng.standard_normal((count, gains.shape[0]))
             + 1j * rng.standard_normal((count, gains.shape[0]))) * scale
    return gamma @ steerings


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
