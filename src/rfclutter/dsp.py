"""Range-Doppler processing chain.

beamform -> pulse_compress -> doppler_process -> normalized dB map with
a peak list.  Pulse compression is correlation against the conjugate
time-reversed waveform over the fully-overlapped lags, so an echo at
channel tap d lands at compressed sample d.  Doppler bin b corresponds
to b * PRF / M, wrapping at the PRF.
"""

from __future__ import annotations

import csv as _csv

import numpy as np
from scipy.fft import next_fast_len
from scipy.ndimage import maximum_filter

from .errors import ConfigurationError
from .rxsim import DataCube, check_waveform_rate
from .waveform import Waveform

DEFAULT_CLIP_DB = 60.0        # dynamic range below the map peak
DEFAULT_PEAK_OFFSET_DB = 20.0  # peak threshold above the map median


def beamform(cube, weights: np.ndarray) -> np.ndarray:
    """Spatial combining y[m, r] = w^H x[:, m, r].

    `cube` may be a one-CPI DataCube or a bare (N, M, R) array.  A
    complex64 input is combined at its own precision, the weights
    rounded to complex64, so no complex128 copy of the cube is made;
    any other input is combined in complex128.
    """
    x = cube.one_cpi() if isinstance(cube, DataCube) else np.asarray(cube)
    if x.ndim != 3:
        raise ConfigurationError("beamform input must have shape (N, M, R)")
    weights = np.asarray(weights, dtype=np.complex128).reshape(-1)
    if weights.shape[0] != x.shape[0]:
        raise ConfigurationError(
            f"weights length {weights.shape[0]} != channel count {x.shape[0]}")
    w = weights.conj().astype(np.complex64 if x.dtype == np.complex64 else np.complex128)
    return np.tensordot(w, x, axes=([0], [0]))


def pulse_compress(samples: np.ndarray, wf: Waveform) -> np.ndarray:
    """Matched filter along the last axis, fully-overlapped lags only.

    out[..., l] = sum_p samples[..., l + p] * conj(s[p]); output length
    R - P + 1.  A unit-energy waveform fed to itself gives a single
    sample equal to 1.
    """
    x = np.asarray(samples, dtype=np.complex128)
    s = wf.samples
    p = s.shape[0]
    if wf.energy == 0.0:
        raise ConfigurationError("cannot pulse-compress against an all-zero waveform")
    r = x.shape[-1]
    if r < p:
        raise ConfigurationError(
            f"input length {r} is shorter than the waveform ({p} samples)")
    n_out = r - p + 1
    nfft = next_fast_len(r)
    xf = np.fft.fft(x, nfft, axis=-1)
    sf = np.fft.fft(s, nfft)
    out = np.fft.ifft(xf * sf.conj(), axis=-1)
    return np.ascontiguousarray(out[..., :n_out])


def doppler_process(pulses: np.ndarray, window: str | None = None) -> np.ndarray:
    """DFT across the pulse (first) axis; bin b <-> Doppler b * PRF / M.

    `window` may be None or "hann".
    """
    x = np.asarray(pulses, dtype=np.complex128)
    if x.ndim < 1:
        raise ConfigurationError("doppler_process input must have a pulse axis")
    if window is not None:
        if window != "hann":
            raise ConfigurationError(f"unknown window {window!r} (use None or 'hann')")
        w = np.hanning(x.shape[0])
        x = x * w.reshape((-1,) + (1,) * (x.ndim - 1))
    return np.fft.fft(x, axis=0)


def doppler_axis(num_pulses: int, prf: float) -> np.ndarray:
    """Hz value of each unshifted Doppler bin, wrapped into +/- PRF/2."""
    f = np.arange(num_pulses) * (prf / num_pulses)
    return np.where(f >= prf / 2.0, f - prf, f)


def range_doppler_map(cube, wf: Waveform, weights: np.ndarray,
                      window: str | None = None, clip_db: float = DEFAULT_CLIP_DB,
                      peak_offset_db: float = DEFAULT_PEAK_OFFSET_DB,
                      ) -> tuple[np.ndarray, list[tuple[int, int, float]]]:
    """Full chain to a normalized dB map plus its peak list.

    The map is 20 log10 |.| normalized so the strongest bin sits at
    0 dB, floored `clip_db` below that.  Peaks are local maxima (wrapped
    in Doppler) above median + peak_offset_db, returned as (range bin,
    Doppler bin, dB) sorted strongest first.  An all-zero cube yields a
    floor-valued map and no peaks.  A DataCube must hold one CPI and
    share the waveform's sample rate, as a channel must in cube
    assembly.
    """
    if clip_db <= 0:
        raise ConfigurationError(f"clip_db must be positive, got {clip_db}")
    if isinstance(cube, DataCube):
        check_waveform_rate(wf, cube.sample_rate, "cube")
    bf = beamform(cube, weights)
    pc = pulse_compress(bf, wf)
    dp = doppler_process(pc, window=window)
    mag = np.abs(dp)
    peak = float(mag.max()) if mag.size else 0.0
    if peak == 0.0:
        return np.full(mag.shape, -clip_db), []
    floor = peak * 10.0 ** (-clip_db / 20.0)
    map_db = 20.0 * np.log10(np.maximum(mag, floor) / peak)

    threshold = float(np.median(map_db)) + peak_offset_db
    local_max = map_db >= maximum_filter(map_db, size=3, mode=("wrap", "nearest"))
    candidates = local_max & (map_db > threshold) & (map_db > -clip_db)
    peaks = [(int(r), int(d), float(map_db[d, r]))
             for d, r in zip(*np.nonzero(candidates))]
    peaks.sort(key=lambda t: (-t[2], t[0], t[1]))
    return map_db, peaks


def write_map_csv(path, map_db: np.ndarray) -> None:
    """Map export: one row per bin, columns doppler_bin, range_bin, db."""
    m = np.asarray(map_db, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _csv.writer(f)
        w.writerow(["doppler_bin", "range_bin", "db"])
        for d in range(m.shape[0]):
            for r in range(m.shape[1]):
                w.writerow([d, r, repr(float(m[d, r]))])


def write_peaks_csv(path, peaks: list[tuple[int, int, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = _csv.writer(f)
        w.writerow(["range_bin", "doppler_bin", "db"])
        for r, d, db in peaks:
            w.writerow([r, d, repr(float(db))])


def write_pgm(path, map_db: np.ndarray, clip_db: float = DEFAULT_CLIP_DB) -> None:
    """8-bit grayscale raster of a dB map: -clip_db -> 0, 0 dB -> 255."""
    m = np.asarray(map_db, dtype=np.float64)
    if m.ndim != 2:
        raise ConfigurationError("pgm export needs a 2-D map")
    scaled = np.clip((m + clip_db) / clip_db, 0.0, 1.0)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
