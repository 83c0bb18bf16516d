"""Receiver IQ simulation: waveform convolution plus thermal noise.

A data cube holds samples[cpi, channel, pulse, range]; each pulse's raw
return is the linear convolution of that pulse's channel taps with the
transmitted waveform, so a cube built from exported channel files and
any waveform is exactly what a fresh simulation would produce.

The binary cube file format (magic RFCUBE01) is little-endian:

    offset  type    field
    0       8s      magic "RFCUBE01"
    8       u32     C CPIs
    12      u32     N receive channels
    16      u32     M pulses
    20      u32     R range samples
    24      f64     sample rate, Hz
    32      f64     PRF, Hz
    40      f64     noise power (complex variance per sample)
    48      f64     carrier, Hz
    56      f32*2CNMR interleaved I/Q, cpi-major (c, n, m, r) C order

The header has no delay-origin field, so only cubes whose range
sample 0 sits at delay 0 can be written.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.fft import next_fast_len

from .binfile import read_framed
from .channel import ChannelImpulseResponse
from .errors import ConfigurationError
from .seeding import STREAM_NOISE, derive_rng
from .waveform import Waveform

_MAGIC = b"RFCUBE01"
_HEADER = struct.Struct("<8sIIIIdddd")


@dataclass
class DataCube:
    samples: np.ndarray          # (C, N, M, R) complex
    sample_rate: float           # Hz
    prf: float                   # Hz
    noise_power: float           # complex variance per sample
    carrier_hz: float = 0.0
    delay_origin: float = 0.0    # s, absolute delay of range sample 0

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples)
        if self.samples.ndim != 4:
            raise ConfigurationError("cube samples must have shape (C, N, M, R)")
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0
                and np.isfinite(self.prf) and self.prf > 0):
            raise ConfigurationError("sample_rate and prf must be positive and finite")
        if not (np.isfinite(self.noise_power) and self.noise_power >= 0):
            raise ConfigurationError("noise_power must be non-negative and finite")

    @property
    def num_cpis(self) -> int:
        return self.samples.shape[0]

    @property
    def num_channels(self) -> int:
        return self.samples.shape[1]

    @property
    def num_pulses(self) -> int:
        return self.samples.shape[2]

    @property
    def num_range_samples(self) -> int:
        return self.samples.shape[3]

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.samples.shape


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


def _as_pulse_waveforms(waveforms, num_pulses: int) -> list[Waveform]:
    if isinstance(waveforms, Waveform):
        return [waveforms] * num_pulses
    waveforms = list(waveforms)
    if len(waveforms) == 1:
        return waveforms * num_pulses
    if len(waveforms) != num_pulses:
        raise ConfigurationError(
            f"need 1 or {num_pulses} waveforms, got {len(waveforms)}")
    return waveforms


def noiseless_samples(ir: ChannelImpulseResponse, waveforms) -> np.ndarray:
    """Convolve every (channel, pulse) tap line with its pulse waveform.

    Returns (N, M, L + P - 1) complex128.  All pulse waveforms must
    share one length and sample rate (matching the channel's).
    """
    wfs = _as_pulse_waveforms(waveforms, ir.num_pulses)
    p = wfs[0].num_samples
    for w in wfs:
        if w.num_samples != p:
            raise ConfigurationError("per-pulse waveforms must share one length")
        if abs(w.sample_rate - ir.sample_rate) > 1e-6 * ir.sample_rate:
            raise ConfigurationError(
                f"waveform sample rate {w.sample_rate} != channel rate {ir.sample_rate}")
    n_out = ir.num_taps + p - 1
    nfft = next_fast_len(n_out)
    taps_f = np.fft.fft(ir.taps.astype(np.complex128), nfft, axis=2)
    wf_f = np.fft.fft(np.stack([w.samples for w in wfs]), nfft, axis=1)
    out = np.fft.ifft(taps_f * wf_f[None, :, :], axis=2)
    return np.ascontiguousarray(out[:, :, :n_out])


def noise_samples(cpi_index: int, num_channels: int, num_pulses: int,
                  num_range_samples: int, noise_power: float, seed: int,
                  rx_index: int = 0) -> np.ndarray:
    """Circular complex Gaussian noise for one CPI, shape (1, N, M, R),
    variance `noise_power` per sample.

    Each (channel, pulse) line is drawn from its own stream keyed by the
    receiver and the absolute CPI index, so the result does not depend
    on evaluation order, worker count, or which CPIs are simulated.
    Zero noise power skips the draws entirely.
    """
    if noise_power < 0:
        raise ConfigurationError("noise_power must be non-negative")
    out = np.zeros((1, num_channels, num_pulses, num_range_samples), dtype=np.complex128)
    if noise_power == 0.0:
        return out
    scale = np.sqrt(noise_power / 2.0)
    for n in range(num_channels):
        for m in range(num_pulses):
            rng = derive_rng(seed, STREAM_NOISE, rx_index, cpi_index, n, m)
            re = rng.standard_normal(num_range_samples)
            im = rng.standard_normal(num_range_samples)
            out[0, n, m] = scale * (re + 1j * im)
    return out


def simulate_cube(clutter_ir: ChannelImpulseResponse | None,
                  target_ir: ChannelImpulseResponse | None,
                  waveforms, noise_power: float, seed: int,
                  carrier_hz: float = 0.0, cpi_index: int = 0,
                  num_range_samples: int | None = None) -> DataCube:
    """One-CPI receiver cube: clutter return + target return + noise.

    The two channels are convolved separately and summed, so the cube of
    the combined scene equals the sum of the single-channel cubes
    exactly.  `num_range_samples`, when given, truncates the natural
    convolution length L + P - 1 (the tail beyond the receive window is
    discarded); it may not extend it.
    """
    irs = [ir for ir in (clutter_ir, target_ir) if ir is not None]
    if not irs:
        raise ConfigurationError("need at least one of clutter_ir / target_ir")
    ref = irs[0]
    for ir in irs[1:]:
        if (ir.num_channels, ir.num_pulses, ir.num_taps) != (ref.num_channels, ref.num_pulses, ref.num_taps):
            raise ConfigurationError("clutter and target channel dimensions differ")
        if abs(ir.sample_rate - ref.sample_rate) > 1e-6 * ref.sample_rate:
            raise ConfigurationError("clutter and target sample rates differ")
        if abs(ir.prf - ref.prf) > 1e-6 * ref.prf:
            raise ConfigurationError("clutter and target PRFs differ")
        if abs(ir.delay_origin - ref.delay_origin) > 1e-15:
            raise ConfigurationError("clutter and target delay origins differ")

    signal = noiseless_samples(irs[0], waveforms)
    for ir in irs[1:]:
        signal = signal + noiseless_samples(ir, waveforms)
    natural = signal.shape[2]
    if num_range_samples is None:
        num_range_samples = natural
    elif num_range_samples > natural:
        raise ConfigurationError(
            f"num_range_samples {num_range_samples} exceeds the convolution length {natural}")
    signal = signal[:, :, :num_range_samples]

    noise = noise_samples(cpi_index, ref.num_channels, ref.num_pulses,
                          num_range_samples, noise_power, seed)
    samples = signal[None, :, :, :] + noise
    return DataCube(samples=samples, sample_rate=ref.sample_rate, prf=ref.prf,
                    noise_power=noise_power, carrier_hz=carrier_hz,
                    delay_origin=ref.delay_origin)


def stack_cubes(cubes: Sequence[DataCube]) -> DataCube:
    """Concatenate single-CPI cubes along the CPI axis."""
    if not cubes:
        raise ConfigurationError("stack_cubes needs at least one cube")
    ref = cubes[0]
    for c in cubes[1:]:
        if c.samples.shape[1:] != ref.samples.shape[1:]:
            raise ConfigurationError("cube dimensions differ")
    samples = np.concatenate([c.samples for c in cubes], axis=0)
    return DataCube(samples=samples, sample_rate=ref.sample_rate, prf=ref.prf,
                    noise_power=ref.noise_power, carrier_hz=ref.carrier_hz,
                    delay_origin=ref.delay_origin)


def write_cube(path, cube: DataCube) -> None:
    if cube.delay_origin != 0.0:
        raise ConfigurationError(
            f"the cube format stores no delay origin; got {cube.delay_origin} s, not 0")
    payload = np.ascontiguousarray(cube.samples, dtype="<c8")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(_MAGIC, cube.num_cpis, cube.num_channels,
                             cube.num_pulses, cube.num_range_samples,
                             cube.sample_rate, cube.prf, cube.noise_power,
                             cube.carrier_hz))
        f.write(payload.tobytes())


def read_cube(path) -> DataCube:
    (c, n, m, r, fs, prf, sigma2, carrier), payload = read_framed(
        path, _HEADER, _MAGIC, "data-cube", lambda c, n, m, r, *_: (c, n, m, r), 8)
    samples = np.frombuffer(payload, dtype="<c8").reshape(c, n, m, r)
    return DataCube(samples=samples, sample_rate=fs, prf=prf, noise_power=sigma2,
                    carrier_hz=carrier)
