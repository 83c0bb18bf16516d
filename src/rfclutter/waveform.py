"""Transmit waveforms: LFM chirps and random phase codes.

All generators return unit-energy complex baseband samples.  The
binary waveform file format (magic RFWAV001) is little-endian:

    offset  type   field
    0       8s     magic "RFWAV001"
    8       u32    sample count P
    12      f64    sample rate, Hz
    20      f32*2P interleaved I/Q
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binfile import read_framed, write_framed
from .errors import ConfigurationError

_MAGIC = b"RFWAV001"
_HEADER = struct.Struct("<8sId")


@dataclass
class Waveform:
    samples: np.ndarray          # complex128 (P,)
    sample_rate: float           # Hz

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128).reshape(-1)
        if self.samples.size == 0:
            raise ConfigurationError("waveform must have at least one sample")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigurationError("waveform samples must be finite")
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ConfigurationError(
                f"sample_rate must be positive and finite, got {self.sample_rate}")

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2))


def normalize_energy(wf: Waveform) -> Waveform:
    """Scale to unit energy.  Raises on an all-zero waveform."""
    e = wf.energy
    if e == 0.0:
        raise ValueError("cannot normalize an all-zero waveform")
    return Waveform(samples=wf.samples / np.sqrt(e), sample_rate=wf.sample_rate)


def lfm(bandwidth: float, duration: float, sample_rate: float,
        direction: str = "up") -> Waveform:
    """Linear FM chirp, s(t) = exp(+/- j pi (B/T) t^2) on t in [-T/2, T/2).

    A down-chirp is the conjugate of the up-chirp on the same time grid.
    Requires sample_rate >= bandwidth (complex baseband sampling).
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    if bandwidth < 0:
        raise ConfigurationError(f"bandwidth must be non-negative, got {bandwidth}")
    if sample_rate < bandwidth:
        raise ConfigurationError(
            f"sample_rate {sample_rate} is below the bandwidth {bandwidth}")
    if direction not in ("up", "down"):
        raise ConfigurationError(f"direction must be 'up' or 'down', got {direction!r}")
    n = max(1, round(duration * sample_rate))
    t = np.arange(n) / sample_rate - duration / 2.0
    sign = 1.0 if direction == "up" else -1.0
    phase = sign * np.pi * (bandwidth / duration) * t * t
    return normalize_energy(Waveform(samples=np.exp(1j * phase), sample_rate=sample_rate))


def phase_code(num_chips: int, sample_rate: float, seed: int) -> Waveform:
    """Random phase code: unit-modulus chips with i.i.d. uniform phase."""
    if num_chips < 1:
        raise ConfigurationError(f"num_chips must be >= 1, got {num_chips}")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, num_chips)
    return normalize_energy(Waveform(samples=np.exp(1j * phases), sample_rate=sample_rate))


def write_waveform(path, wf: Waveform) -> str:
    """Write a waveform file; returns its SHA-256 hex digest."""
    iq = np.empty(2 * wf.num_samples, dtype="<f4")
    iq[0::2] = wf.samples.real
    iq[1::2] = wf.samples.imag
    return write_framed(path, _HEADER.pack(_MAGIC, wf.num_samples, wf.sample_rate), iq)


def read_waveform(path, sha256: str | None = None) -> Waveform:
    """Read a waveform file; `sha256`, when given, is the hex digest the
    whole file must have."""
    (n, fs), _, iq = read_framed(path, _HEADER, _MAGIC, "waveform",
                                 lambda n, fs: (n,), sha256=sha256)
    return Waveform(samples=iq.astype(np.complex128), sample_rate=fs)
