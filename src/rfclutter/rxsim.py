"""Receiver IQ simulation: waveform convolution plus thermal noise.

A data cube holds samples[cpi, channel, pulse, range]; each pulse's raw
return is the linear convolution of that pulse's channel taps with the
transmitted waveform, so a cube built from exported channel files and
any waveform is exactly what a fresh simulation would produce.

A cube's receive channels are spread over the CPUs this process may
run on, through the process's one worker pool (`workers`), which line
of sight and the Philox draws share.  Each worker assembles its
channels one at a time in one (M, nfft) buffer: convolution and
superposition happen in it, and once they are copied out the
channel's noise is drawn into the same buffer.  Peak memory is one
cube plus one such buffer per worker.  Cube assembly, line of sight
and the Philox draws all give the same bytes at any core count.

A channel's lines go through the FFT pair unless they are sparse: when
the taps that are non-zero in any pulse, its tap support S, satisfy
|S| P <= nfft for P waveform samples, the direct sum costs at most one
transform length of multiplies per line, and the lines are convolved
directly over S instead.  A target channel has a few such taps, dense
clutter hundreds.  The route depends only on the channel's own taps.

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
from .workers import run_blocks

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


def check_waveform_rate(wf: Waveform, rate: float, holder: str) -> None:
    """Reject a waveform not sampled at `rate` (to 1e-6 relative), the
    rate of the channel or cube named by `holder`."""
    if abs(wf.sample_rate - rate) > 1e-6 * rate:
        raise ConfigurationError(f"waveform sample rate {wf.sample_rate} != {holder} rate {rate}")


def _waveform_rows(waveforms, ir: ChannelImpulseResponse) -> np.ndarray:
    """The pulse waveforms for `ir` as a (1, P) array shared by every
    pulse or an (M, P) array with one row per pulse.  They must share
    one length and the channel's sample rate."""
    wfs = [waveforms] if isinstance(waveforms, Waveform) else list(waveforms)
    if not wfs or len(wfs) not in (1, ir.num_pulses):
        raise ConfigurationError(
            f"need 1 or {ir.num_pulses} waveforms, got {len(wfs)}")
    p = wfs[0].num_samples
    for w in wfs:
        if w.num_samples != p:
            raise ConfigurationError("per-pulse waveforms must share one length")
        check_waveform_rate(w, ir.sample_rate, "channel")
    return np.stack([w.samples for w in wfs])


def _tap_support(lines: np.ndarray, limit: int) -> np.ndarray | None:
    """The taps of one channel's (M, L) lines that are non-zero in any
    pulse, ascending, when there are at most `limit` of them; None
    otherwise.  The taps are counted on one pass over the lines (an
    any-reduction over pulses, several times cheaper than counting the
    non-zero complex entries), so dense lines are rejected after it."""
    occupied = lines.any(axis=0)
    if np.count_nonzero(occupied) > limit:
        return None
    return np.flatnonzero(occupied)


def _assemble_cube(groups: Sequence[tuple[Sequence[ChannelImpulseResponse], object]],
                   noise_power: float, seed: int, cpi_index: int) -> np.ndarray:
    """The receiver's CPI samples, (1, N, M, L + P - 1) complex128.

    `groups` pairs channels with the waveforms (one Waveform or a
    per-pulse sequence) they carry; the cube is the sum of every
    channel convolved with its pulses, in the order given, plus
    circular Gaussian noise of variance `noise_power` per sample.  Each
    receive channel n draws its noise as one (2, M, L + P - 1) block of
    standard normals from `derive_rng(seed, STREAM_NOISE, 0, cpi_index,
    n)`, where 0 fills the key's receiver slot (there is one receiver):
    block [0] holds the real parts and [1] the imaginary parts, each
    scaled by sqrt(noise_power / 2).  The noise is keyed by index
    alone, so it does not depend on evaluation order, worker count,
    channel blocking, or which CPIs are simulated.

    Receive channel n goes to block n % W', where W' is the smaller of
    the channel count and the CPUs this process may run on; block 0
    runs on the calling thread and each other block as one task of the
    shared pool (`workers.run_blocks`).  The noise generators are
    derived here, in channel order, before dispatch.  Each block owns
    one (M, nfft) buffer: a channel's tap lines are convolved and summed
    through it, and once they are copied into the cube its noise block
    is drawn into the buffer's first 2 M R float64 words.  So the
    working set is the cube plus one buffer per worker.  Every tap line
    goes through the same arithmetic, and the channels and the noise
    are added in the same order, as in a whole-cube evaluation, so the
    bytes do not depend on the blocking or the worker count.

    A (channel, receive channel) pair whose `_tap_support` S has
    |S| P <= nfft skips the FFTs: the buffer is zeroed over the output
    span and, for s in S ascending, taps[:, s] times the waveform rows
    is added at offset s.  The result is copied or added into the lines
    as an FFT term is, so superposition stays exact.
    """
    if not (np.isfinite(noise_power) and noise_power >= 0):
        raise ConfigurationError(
            f"noise_power must be non-negative and finite, got {noise_power}")
    ref = groups[0][0][0]
    n_ch, n_pulses, n_taps = ref.taps.shape
    rows = []
    for irs, waveforms in groups:
        for ir in irs:
            if ir.taps.shape != ref.taps.shape:
                raise ConfigurationError(
                    f"channel dimensions {ir.taps.shape} differ from {ref.taps.shape}")
            if abs(ir.sample_rate - ref.sample_rate) > 1e-6 * ref.sample_rate:
                raise ConfigurationError(
                    f"channel sample rates {ir.sample_rate} and {ref.sample_rate} differ")
        rows.append(_waveform_rows(waveforms, ref))
    p = rows[0].shape[1]
    if any(r.shape[1] != p for r in rows):
        raise ConfigurationError("the waveforms of one cube must share one length")
    n_out = n_taps + p - 1
    nfft = next_fast_len(n_out)
    direct_limit = nfft // p    # |S| P <= nfft
    terms = [(ir, r, np.fft.fft(r, nfft, axis=1))
             for (irs, _), r in zip(groups, rows) for ir in irs]
    rngs = ([derive_rng(seed, STREAM_NOISE, 0, cpi_index, n) for n in range(n_ch)]
            if noise_power > 0.0 else None)
    scale = np.sqrt(noise_power / 2.0)
    cube = np.empty((1, n_ch, n_pulses, n_out), dtype=np.complex128)

    def assemble(channels: range) -> None:
        buf = np.empty((n_pulses, nfft), dtype=np.complex128)
        noise = buf.reshape(-1).view(np.float64)[:2 * n_pulses * n_out].reshape(
            2, n_pulses, n_out)
        for n in channels:
            lines = cube[0, n]
            for k, (ir, waveform_rows, spectrum) in enumerate(terms):
                taps = ir.taps[n]
                support = _tap_support(taps, direct_limit)
                if support is None:
                    buf[:, :n_taps] = taps
                    buf[:, n_taps:] = 0.0
                    np.fft.fft(buf, axis=1, out=buf)
                    buf *= spectrum
                    np.fft.ifft(buf, axis=1, out=buf)
                else:
                    buf[:, :n_out] = 0.0
                    for s in support:
                        buf[:, s:s + p] += taps[:, s, None] * waveform_rows
                if k == 0:   # a copy: adding to zeros would turn -0.0 into +0.0
                    lines[...] = buf[:, :n_out]
                else:
                    lines += buf[:, :n_out]
            if rngs is None:
                # adding zero noise still turns -0.0 into +0.0
                lines += 0.0
                continue
            rngs[n].standard_normal(out=noise)
            noise *= scale
            lines.real += noise[0]
            lines.imag += noise[1]

    run_blocks(assemble, n_ch)
    return cube


def simulate_cube(clutter_ir: ChannelImpulseResponse | None,
                  target_ir: ChannelImpulseResponse | None,
                  waveforms, noise_power: float, seed: int,
                  carrier_hz: float = 0.0, cpi_index: int = 0) -> DataCube:
    """One-CPI receiver cube: clutter return + target return + noise.

    The two channels are convolved separately and summed, so the cube of
    the combined scene equals the sum of the single-channel cubes
    exactly.  The range window is the full convolution length L + P - 1.
    `waveforms` is one Waveform or one per pulse, all of one length;
    both channels and the waveforms must share one sample rate.
    """
    irs = [ir for ir in (clutter_ir, target_ir) if ir is not None]
    if not irs:
        raise ConfigurationError("need at least one of clutter_ir / target_ir")
    ref = irs[0]
    for ir in irs[1:]:
        if abs(ir.prf - ref.prf) > 1e-6 * ref.prf:
            raise ConfigurationError("clutter and target PRFs differ")
        if abs(ir.delay_origin - ref.delay_origin) > 1e-15:
            raise ConfigurationError("clutter and target delay origins differ")

    samples = _assemble_cube([(irs, waveforms)], noise_power, seed, cpi_index)
    return DataCube(samples=samples, sample_rate=ref.sample_rate, prf=ref.prf,
                    noise_power=noise_power, carrier_hz=carrier_hz,
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


def read_cube(path, sha256: str | None = None) -> DataCube:
    """Read a cube file; `sha256`, when given, is the hex digest the
    whole file must have."""
    (c, n, m, r, fs, prf, sigma2, carrier), samples = read_framed(
        path, _HEADER, _MAGIC, "data-cube", lambda c, n, m, r, *_: (c, n, m, r),
        sha256=sha256)
    return DataCube(samples=samples, sample_rate=fs, prf=prf, noise_power=sigma2,
                    carrier_hz=carrier)
