"""Channel impulse response synthesis.

The clutter and target channels are represented as per-channel,
per-pulse tapped delay lines over the taps where scatterers lie: a
channel holds the ascending occupied tap indices support[k] of its L
taps and taps[n, m, k], the complex gain of receive channel n, pulse m
at fast-time delay delay_origin + support[k] / fs.  Every other tap is
zero.  A receiver data cube is then just each pulse's waveform
convolved with these taps plus noise, which is what makes the channel
description waveform independent.

Taps are stored as complex64; that is the precision of the interchange
file format, and keeping the in-memory array identical to the on-disk
payload makes export/import lossless.  Accumulation happens in
complex128 (one GEMM per tap) before the final cast.

The binary impulse-response file format (magic RFGIR002) is
little-endian:

    offset  type    field
    0       8s      magic "RFGIR002"
    8       u32     N receive channels
    12      u32     M pulses
    16      u32     L delay taps
    20      f64     sample rate, Hz
    28      f64     delay origin, s
    36      f64     PRF, Hz
    44      u32     K occupied taps, K <= L
    48      u32*K   the occupied tap indices, strictly ascending, < L
    48+4K   f32*2NMK interleaved I/Q of the occupied taps,
                    channel-major (n, m, k) C order
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .antenna import ArrayGeometry, phase_ramps, spatial_steering_many
from .binfile import read_framed, write_framed
from .errors import ConfigurationError
from .seeding import STREAM_CLUTTER, normal_pair, philox_key, philox_words, uniforms
from .terrain import PatchArrays, PlatformState
from .workers import run_blocks

logger = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_MAGIC = b"RFGIR002"
_HEADER = struct.Struct("<8sIIIdddI")

_TAP_BATCH = 4096  # responses per accumulation batch of whole taps; bounds scratch memory


def _check_delay_origin(delay_origin: float) -> None:
    if not (np.isfinite(delay_origin) and delay_origin >= 0):
        raise ConfigurationError(
            f"delay_origin must be non-negative and finite, got {delay_origin}")


@dataclass
class RadarTiming:
    """Fast/slow time bookkeeping for one CPI."""

    prf: float                   # Hz
    sample_rate: float           # Hz
    num_pulses: int
    num_taps: int                # receive window length, fast-time samples
    delay_origin: float = 0.0    # s, absolute delay of tap 0

    def __post_init__(self):
        if not (np.isfinite(self.prf) and self.prf > 0):
            raise ConfigurationError(f"prf must be positive and finite, got {self.prf}")
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0):
            raise ConfigurationError(
                f"sample_rate must be positive and finite, got {self.sample_rate}")
        if self.num_pulses < 1:
            raise ConfigurationError(f"num_pulses must be >= 1, got {self.num_pulses}")
        if self.num_taps < 1:
            raise ConfigurationError(f"num_taps must be >= 1, got {self.num_taps}")
        _check_delay_origin(self.delay_origin)

    @classmethod
    def for_swath(cls, prf: float, sample_rate: float, num_pulses: int,
                  swath: float, delay_origin: float = 0.0) -> "RadarTiming":
        """Receive window sized to a monostatic ground swath of `swath` meters.

        num_taps = ceil(two-way swath delay * sample_rate), with a small
        guard so windows that land exactly on a sample count do not gain
        a spurious extra tap.
        """
        if swath <= 0:
            raise ConfigurationError(f"swath must be positive, got {swath}")
        delay_extent = 2.0 * swath / SPEED_OF_LIGHT
        if not math.isfinite(delay_extent * sample_rate):
            raise ConfigurationError(f"a swath of {swath} m spans too many samples")
        num_taps = max(1, math.ceil(delay_extent * sample_rate - 1e-9))
        return cls(prf=prf, sample_rate=sample_rate, num_pulses=num_pulses,
                   num_taps=num_taps, delay_origin=delay_origin)


@dataclass
class StochasticModel:
    """Per-realization randomness applied to patch responses."""

    seed: int = 0
    doppler_std_hz: float = 0.0      # intrinsic-motion Doppler jitter, 1 sigma
    deterministic_phase: bool = False  # phase from path length instead of a draw

    def __post_init__(self):
        if self.doppler_std_hz < 0:
            raise ConfigurationError("doppler_std_hz must be non-negative")


@dataclass
class ChannelImpulseResponse:
    """Tapped-delay-line channel over its occupied taps: taps[n, m, k],
    complex64, is the gain at tap support[k] of num_taps.

    `support` defaults to every tap 0 .. K - 1 and `num_taps` to K; an
    (N, M, L) array with zero taps comes in through `from_dense`.
    """

    taps: np.ndarray             # (N, M, K) complex64
    sample_rate: float           # Hz
    prf: float                   # Hz
    delay_origin: float = 0.0    # s
    support: np.ndarray | None = None   # (K,) ascending tap indices
    num_taps: int | None = None  # L, the receive window in taps

    def __post_init__(self):
        self.taps = np.ascontiguousarray(self.taps, dtype=np.complex64)
        if self.taps.ndim != 3:
            raise ConfigurationError("impulse response taps must have shape (N, M, K)")
        k = self.taps.shape[2]
        if self.support is None:
            self.support = np.arange(k)
        self.support = np.asarray(self.support, dtype=np.int64).reshape(-1)
        if self.num_taps is None:
            self.num_taps = k
        self.num_taps = int(self.num_taps)
        if self.num_taps < 1:
            raise ConfigurationError(f"num_taps must be >= 1, got {self.num_taps}")
        if self.support.size != k:
            raise ConfigurationError(f"{self.support.size} support taps for {k} tap columns")
        if k and (self.support[0] < 0 or self.support[-1] >= self.num_taps
                  or np.any(np.diff(self.support) <= 0)):
            raise ConfigurationError(
                f"the support must ascend strictly within 0..{self.num_taps - 1}")
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0
                and np.isfinite(self.prf) and self.prf > 0):
            raise ConfigurationError("sample_rate and prf must be positive and finite")
        _check_delay_origin(self.delay_origin)
        self.taps.setflags(write=False)
        self.support.setflags(write=False)

    @classmethod
    def from_dense(cls, taps, sample_rate: float, prf: float,
                   delay_origin: float = 0.0) -> "ChannelImpulseResponse":
        """The channel of an (N, M, L) tap array: its support is the taps
        that are non-zero in some channel and pulse."""
        taps = np.asarray(taps, dtype=np.complex64)
        if taps.ndim != 3:
            raise ConfigurationError("impulse response taps must have shape (N, M, L)")
        support = np.flatnonzero(taps.any(axis=(0, 1)))
        return cls(taps=taps[:, :, support], sample_rate=sample_rate, prf=prf,
                   delay_origin=delay_origin, support=support,
                   num_taps=taps.shape[2])

    def dense(self) -> np.ndarray:
        """The (N, M, L) complex64 taps, zero off the support."""
        out = np.zeros((self.num_channels, self.num_pulses, self.num_taps),
                       dtype=np.complex64)
        out[:, :, self.support] = self.taps
        return out

    @property
    def num_channels(self) -> int:
        return self.taps.shape[0]

    @property
    def num_pulses(self) -> int:
        return self.taps.shape[1]


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner product of two (n, 3) arrays, each row bit for bit
    the `np.dot` of the two rows (a stacked matmul; `einsum` and
    `np.linalg.norm(axis=1)` round differently)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def bistatic_delays_dopplers(positions, velocities, tx: PlatformState, rx: PlatformState,
                             wavelength: float) -> tuple[np.ndarray, np.ndarray]:
    """Propagation delays and Dopplers of points at `positions` moving
    with `velocities` ((n, 3) each), for the given transmit and receive
    platforms; returns (delays, dopplers).

    A point's delay is (r_tx + r_rx) / c, and its Doppler is
    (<v_tx - v, u_tx> + <v_rx - v, u_rx>) / lambda, positive for closing
    geometry, with u the unit vectors from each platform to the point.
    Each row is bit for bit the scalar `np.linalg.norm` and `np.dot`
    arithmetic of the one-point oracle in tests/oracles.py.
    """
    if wavelength <= 0:
        raise ConfigurationError(f"wavelength must be positive, got {wavelength}")
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    velocities = np.broadcast_to(np.asarray(velocities, dtype=np.float64), positions.shape)
    d_tx = positions - tx.position
    d_rx = positions - rx.position
    r_tx = np.sqrt(_row_dot(d_tx, d_tx))
    r_rx = np.sqrt(_row_dot(d_rx, d_rx))
    if np.any(r_tx == 0.0) or np.any(r_rx == 0.0):
        raise ConfigurationError("a point coincides with a platform")
    u_tx = d_tx / r_tx[:, None]
    u_rx = d_rx / r_rx[:, None]
    delays = (r_tx + r_rx) / SPEED_OF_LIGHT
    dopplers = (_row_dot(tx.velocity - velocities, u_tx)
                + _row_dot(rx.velocity - velocities, u_rx)) / wavelength
    return delays, dopplers


def scatterer_responses(delay, doppler, amplitude, patch_id) -> np.recarray:
    """Delay (s), Doppler (Hz), complex amplitude and patch id of each
    scatterer for one realization, as the columns of a record array."""
    return np.rec.fromarrays(
        [np.asarray(delay, dtype=np.float64), np.asarray(doppler, dtype=np.float64),
         np.asarray(amplitude, dtype=np.complex128), np.asarray(patch_id, dtype=np.int64)],
        names="delay,doppler,amplitude,patch_id")


def patch_responses(patches: PatchArrays, power_scales: np.ndarray,
                    tx: PlatformState, rx: PlatformState, wavelength: float,
                    model: StochasticModel, realization: int = 0) -> np.recarray:
    """(delay, Doppler, amplitude) of every patch for one CPI
    realization, as the columns of `scatterer_responses`.

    amplitude = sqrt(G) * exp(j phi), with phi uniform per (patch,
    realization) under the model seed, or derived from the path length
    when the model is deterministic (`drawn_amplitudes_dopplers`).  Each
    patch draws from its own Philox counter, so a single patch can
    always be reproduced in isolation, bit for bit, through numpy's own
    `Philox` bit generator, as the one-patch oracle in tests/oracles.py
    does.
    """
    power_scales = np.asarray(power_scales, dtype=np.float64).reshape(-1)
    if power_scales.shape[0] != len(patches):
        raise ConfigurationError("power_scales length must match patch count")
    if np.any(power_scales < 0):
        raise ConfigurationError("power_scales must be non-negative")
    delays, dopplers = bistatic_delays_dopplers(patches.centers, np.zeros(3), tx, rx,
                                                wavelength)
    words = philox_words(philox_key(model.seed, STREAM_CLUTTER), patches.ids,
                         realization, 1)
    amplitudes, dopplers = drawn_amplitudes_dopplers(words, delays, dopplers, power_scales,
                                                     wavelength, model)
    return scatterer_responses(delays, dopplers, amplitudes, patches.ids)


def drawn_amplitudes_dopplers(words, delays: np.ndarray, dopplers: np.ndarray,
                              power_scales: np.ndarray, wavelength: float,
                              model: StochasticModel) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes and Dopplers of scatterers with the given delays,
    Dopplers and power scales, from the first Philox block of each:
    `words[..., 0]` draws the phase and words 1 and 2 the Doppler
    jitter by Box-Muller (see `seeding`).  Leading axes of `words` (one per
    realization, say) broadcast against the scatterer axis.  Words that
    the model does not draw from may be None."""
    if model.deterministic_phase:
        phase = -2.0 * np.pi * (delays * SPEED_OF_LIGHT) / wavelength
    else:
        phase = 2.0 * np.pi * uniforms(words[..., 0])
    if model.doppler_std_hz > 0:
        dopplers = dopplers + model.doppler_std_hz * normal_pair(words[..., 1],
                                                                 words[..., 2])[0]
    return np.sqrt(power_scales) * np.exp(1j * phase), dopplers


def synthesize_ir(responses: np.recarray, directions: np.ndarray,
                  array: ArrayGeometry, timing: RadarTiming,
                  modulation: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                  ) -> ChannelImpulseResponse:
    """Accumulate scatterer responses into per-channel, per-pulse taps.

    tap[n, m, round((delay - origin) * fs)] += amp * exp(j 2 pi fd m / prf) * s_n(d)

    `responses` has the columns of `scatterer_responses`; `directions`
    holds the unit receive direction (array -> scatterer) per response.
    Both phase factors are `phase_ramps`: a response's slow-time phasors
    are the ramp of theta = (2 pi / prf) fd over the M pulses, and its
    steering entries s_n(d) the ramp over the N elements of the uniform
    linear array (`spatial_steering_many`).
    The channel's support is the taps that some live response lands on,
    ascending.  Each of them is one complex128 product: with the r
    responses that land on support[k] in ascending patch_id order (ties
    in input order), taps[:, :, k] = (amp * s)^T @ slow, an (N x r) @
    (r x M) GEMM, cast to complex64.  A tap's value so depends only on
    its own responses; its bytes depend on the BLAS build but not on its
    thread count.  Zero-amplitude (shadowed) responses are skipped, which
    leaves the sum unchanged.  Responses whose tap falls outside the
    receive window are dropped and counted in a warning.

    The occupied taps are cut into batches of whole taps, about
    _TAP_BATCH responses each, and the batches run on every core
    (`workers.run_blocks`): a batch builds its responses' steering
    entries, slow-time phasors and sea modulation and runs its taps'
    GEMMs, writing only its own taps, so the bytes are the same at any
    core count.

    `modulation = (rows, phase, amp)`, when given, multiplies the
    slow-time phasors of the responses at the ascending indices `rows` by
    exp(j phase) and then by amp, both of shape (len(rows), M); dynamic
    surfaces (sea states) use it to modulate the pulses of the rows
    they cover, and every other row is left as it is.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if directions.shape[0] != len(responses):
        raise ConfigurationError("directions must align with responses")
    n_elem = array.num_elements
    n_pulse = timing.num_pulses
    n_tap = timing.num_taps
    mod_of = None
    if modulation is not None:
        rows, mod_phase, mod_amp = modulation
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        mod_phase = np.asarray(mod_phase, dtype=np.float64)
        mod_amp = np.asarray(mod_amp, dtype=np.float64)
        if mod_phase.shape != (rows.size, n_pulse) or mod_amp.shape != (rows.size, n_pulse):
            raise ConfigurationError("modulation phase and amp must have shape "
                                     "(len(rows), num_pulses)")
        if rows.size and (rows[0] < 0 or rows[-1] >= len(responses)
                          or np.any(np.diff(rows) <= 0)):
            raise ConfigurationError(
                "modulation rows must be ascending, distinct indices of the responses")
        # mod_of[i] is response i's modulation row, -1 where it has none
        mod_of = np.full(len(responses), -1, dtype=np.int64)
        mod_of[rows] = np.arange(rows.size)

    amps = responses.amplitude
    taps_idx = np.round((responses.delay - timing.delay_origin)
                        * timing.sample_rate).astype(np.int64)
    live = amps != 0
    in_window = (taps_idx >= 0) & (taps_idx < n_tap)
    dropped = int(np.count_nonzero(live & ~in_window))
    if dropped:
        logger.warning("%d patch responses fall outside the receive window and were dropped",
                       dropped)

    sel = np.flatnonzero(live & in_window)
    sel = sel[np.lexsort((responses.patch_id[sel], taps_idx[sel]))]
    tap_of = taps_idx[sel]
    # bounds[g]:bounds[g + 1] are the responses of the g-th occupied tap
    bounds = np.append(np.flatnonzero(np.diff(tap_of, prepend=-1)), sel.size)
    # batch i holds the whole taps edges[i]:edges[i + 1], about _TAP_BATCH responses
    edges = [0]
    while edges[-1] < bounds.size - 1:
        g = edges[-1]
        edges.append(max(g + 1, int(np.searchsorted(bounds, bounds[g] + _TAP_BATCH,
                                                    side="right")) - 1))
    support = tap_of[bounds[:-1]]
    out = np.empty((n_elem, n_pulse, support.size), dtype=np.complex64)

    def accumulate(batches: range) -> None:
        for i in batches:
            g, h = edges[i], edges[i + 1]
            lo = bounds[g]
            idx = sel[lo:bounds[h]]
            coef = amps[idx, None] * spatial_steering_many(array, directions[idx])
            slow = phase_ramps((2.0 * np.pi / timing.prf) * responses.doppler[idx], n_pulse)
            if mod_of is not None:
                hit = np.flatnonzero(mod_of[idx] >= 0)
                row = mod_of[idx[hit]]
                slow[hit] = slow[hit] * np.exp(1j * mod_phase[row]) * mod_amp[row]
            for k, (a, b) in enumerate(zip((bounds[g:h] - lo).tolist(),
                                           (bounds[g + 1:h + 1] - lo).tolist()), start=g):
                out[:, :, k] = coef[a:b].T @ slow[a:b]

    run_blocks(accumulate, len(edges) - 1)

    return ChannelImpulseResponse(taps=out, sample_rate=timing.sample_rate, prf=timing.prf,
                                  delay_origin=timing.delay_origin, support=support,
                                  num_taps=n_tap)


def ensemble_second_moment(realize, waveform_len: int, num_realizations: int = 64) -> np.ndarray:
    """Sample mean of H^H H over channel realizations.

    `realize(k)` must return the 1-D delay taps h of realization k for a
    single channel/pulse.  H is the full convolution matrix of h acting
    on a length-`waveform_len` waveform, so H^H H is Toeplitz: entry
    (i, j) is the lag sum r_(i-j), where r_k = sum_l conj(h_l) h_(l+k)
    and r_(-k) = conj(r_k).  Only the lags 0 .. waveform_len - 1 are
    accumulated over the realizations; the (waveform_len, waveform_len)
    Hermitian matrix, with a real diagonal, is built once from their
    mean.  It is suitable for SCNR work.
    """
    if waveform_len < 1:
        raise ConfigurationError(f"waveform_len must be >= 1, got {waveform_len}")
    if num_realizations < 1:
        raise ConfigurationError(f"num_realizations must be >= 1, got {num_realizations}")
    lags = np.zeros(waveform_len, dtype=np.complex128)
    for k in range(num_realizations):
        taps = np.asarray(realize(k), dtype=np.complex128).reshape(-1)
        for lag in range(min(waveform_len, taps.size)):
            lags[lag] += np.vdot(taps[:taps.size - lag], taps[lag:])
    lags /= num_realizations
    lags[0] = lags[0].real
    return toeplitz(lags, lags.conj())


def write_ir(path, ir: ChannelImpulseResponse) -> str:
    """Write an impulse-response file; returns its SHA-256 hex digest."""
    return write_framed(path, _HEADER.pack(_MAGIC, ir.num_channels, ir.num_pulses,
                                           ir.num_taps, ir.sample_rate, ir.delay_origin,
                                           ir.prf, ir.support.size),
                        np.ascontiguousarray(ir.support, dtype="<u4"),
                        np.ascontiguousarray(ir.taps, dtype="<c8"))


def read_ir(path, sha256: str | None = None) -> ChannelImpulseResponse:
    """Read an impulse-response file; `sha256`, when given, is the hex
    digest the whole file must have."""
    (n, m, l, fs, origin, prf, k), support, taps = read_framed(
        path, _HEADER, _MAGIC, "impulse-response", lambda n, m, l, *_: (n, m, l),
        sha256=sha256, occupied=lambda *fields: fields[-1])
    return ChannelImpulseResponse(taps=taps, sample_rate=fs, prf=prf, delay_origin=origin,
                                  support=support, num_taps=l)
