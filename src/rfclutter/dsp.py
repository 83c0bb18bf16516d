"""Range-Doppler processing chain.

beamform -> pulse_compress -> doppler_process -> normalized dB map with
a peak list.  Pulse compression is correlation against the conjugate
time-reversed waveform over the fully-overlapped lags, so an echo at
channel tap d lands at compressed sample d.  Doppler bin b corresponds
to b * PRF / M, wrapping at the PRF.

Beamforming and pulse compression split their M pulse rows over the
process's worker pool (`workers.run_blocks`): block b of W takes the
contiguous rows [b M / W, (b + 1) M / W).  Beamforming sums the
channels in channel order at complex64 precision, and compression
transforms each row on its own, so every row sees the same arithmetic
in any blocking and the maps do not depend on the worker count.  The
chain makes no BLAS call: a matrix-vector product would sum the
channels in an order of the BLAS build's choosing, and the BLAS
library's own worker threads would spin against the pool's.
"""

from __future__ import annotations

import csv as _csv
import math

import numpy as np
from scipy.fft import next_fast_len
from scipy.ndimage import maximum_filter

from .errors import ConfigurationError
from .rxsim import DataCube, check_waveform_rate
from .waveform import Waveform
from .workers import run_blocks

DEFAULT_CLIP_DB = 60.0        # dynamic range below the map peak
DEFAULT_PEAK_OFFSET_DB = 20.0  # peak threshold above the map median


def check_levels(clip_db: float, peak_offset_db: float = DEFAULT_PEAK_OFFSET_DB) -> None:
    """A map's dynamic range `clip_db` must be positive and finite, and
    its peak threshold offset finite."""
    if not (math.isfinite(clip_db) and clip_db > 0):
        raise ConfigurationError(f"clip_db must be positive and finite, got {clip_db}")
    if not math.isfinite(peak_offset_db):
        raise ConfigurationError(f"peak_offset_db must be finite, got {peak_offset_db}")


def _rows(block: range) -> slice:
    """Block b of W's contiguous share of n rows, [b n / W, (b + 1) n / W),
    for the `run_blocks` block range(b, n, W).

    Strided rows b, b + W, ... would make numpy's ufuncs copy each
    operand through a buffer of up to its block's size.
    """
    b, rows, w = block.start, block.stop, block.step
    return slice(b * rows // w, (b + 1) * rows // w)


def beamform(cube: DataCube, weights: np.ndarray) -> np.ndarray:
    """Spatial combining y[m, r] = sum_n conj(w_n) x[n, m, r] of a
    one-CPI DataCube.

    The weights are rounded to complex64 and the channels summed in
    channel order at complex64 precision: y starts at zero and
    y += x_n conj(w_n) for n = 0, 1, ...  The pulse rows are split into
    blocks on the worker pool, each with one product buffer of its own
    rows, so no complex128 or cube-sized copy is made and the result
    is the same at any worker count.  No BLAS call is made, so the sum
    order does not depend on the BLAS build.
    """
    x = cube.one_cpi()
    weights = np.asarray(weights, dtype=np.complex128).reshape(-1)
    if weights.shape[0] != x.shape[0]:
        raise ConfigurationError(
            f"weights length {weights.shape[0]} != channel count {x.shape[0]}")
    cw = weights.conj().astype(np.complex64)
    y = np.zeros(x.shape[1:], dtype=np.complex64)

    def combine(block: range) -> None:
        rows = _rows(block)
        out = y[rows]
        product = np.empty_like(out)
        for n in range(x.shape[0]):
            np.multiply(x[n, rows], cw[n], out=product)
            out += product

    run_blocks(combine, y.shape[0])
    return y


def pulse_compress(samples: np.ndarray, wf: Waveform) -> np.ndarray:
    """Matched filter along the last axis, fully-overlapped lags only.

    out[..., l] = sum_p samples[..., l + p] * conj(s[p]); output length
    R - P + 1, complex128.  A unit-energy waveform fed to itself gives
    a single sample equal to 1.  Each row along the last axis goes
    through its own complex128 FFT pair, over blocks of rows on the
    worker pool; a 1-D input is one row.
    """
    x = np.asarray(samples)
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
    sf = np.fft.fft(s, nfft).conj()
    lines = x.reshape(-1, r)
    out = np.empty((lines.shape[0], n_out), dtype=np.complex128)

    def compress(block: range) -> None:
        rows = _rows(block)
        xf = np.fft.fft(lines[rows].astype(np.complex128), nfft, axis=-1)
        xf *= sf
        out[rows] = np.fft.ifft(xf, axis=-1)[:, :n_out]

    run_blocks(compress, lines.shape[0])
    return out.reshape(x.shape[:-1] + (n_out,))


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


def range_doppler_map(cube: DataCube, wf: Waveform, weights: np.ndarray,
                      window: str | None = None, clip_db: float = DEFAULT_CLIP_DB,
                      peak_offset_db: float = DEFAULT_PEAK_OFFSET_DB,
                      ) -> tuple[np.ndarray, list[tuple[int, int, float]]]:
    """Full chain from a one-CPI DataCube to a normalized dB map plus
    its peak list.

    The map is 20 log10 |.| normalized so the strongest bin sits at
    0 dB, floored `clip_db` below that.  Peaks are local maxima (wrapped
    in Doppler) above median + peak_offset_db, returned as (range bin,
    Doppler bin, dB) sorted strongest first.  An all-zero cube yields a
    floor-valued map and no peaks.  The cube must share the waveform's
    sample rate, as a channel must in cube assembly.
    """
    check_levels(clip_db, peak_offset_db)
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
    check_levels(clip_db)
    m = np.asarray(map_db, dtype=np.float64)
    if m.ndim != 2:
        raise ConfigurationError("pgm export needs a 2-D map")
    scaled = np.clip((m + clip_db) / clip_db, 0.0, 1.0)
    pixels = np.round(scaled * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())
