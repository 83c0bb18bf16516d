"""Receiver IQ simulation: waveform convolution plus thermal noise.

A data cube holds samples[0, channel, pulse, range] as complex64, the
values its cube file stores, for its one CPI; each pulse's raw return is
the linear convolution of that pulse's channel taps with the
transmitted waveform, so a cube built from exported channel files and
any waveform is exactly what a fresh simulation would produce, in
memory as on disk.

A cube's receive channels are spread over the CPUs this process may
run on, through the process's one worker pool (`workers`), which line
of sight and the Philox draws share.  Each worker assembles its
channels one at a time in a complex128 (M, R) line buffer: the
channel's noise is drawn into it first, as float32 Box-Muller pairs
scaled in complex128, each channel term is convolved in one (M, nfft)
buffer and added to it, and the lines are rounded once into the
complex64 cube.  Peak memory is one cube plus the two buffers per
worker.  Cube assembly, line of sight and the Philox draws all give
the same bytes at any core count.

The receiver noise of a CPI does not depend on the waveform, so
replaying a CPI with several waveforms draws it once: the process
keeps the unit noise of at most one CPI, 8 bytes per sample, from the
second request for its key on (`assemble_cube`).  A simulation, whose
CPIs never repeat, keeps nothing.  A channel's window transforms do
not depend on the waveform either, so, by the same protocol, the
process keeps those of at most one channel, 16 bytes per transformed
sample, from the second request for that channel and transform length
on, freed with the channel: a stored channel replayed under several
waveforms is transformed twice, and a simulation keeps none.

A channel carries its tap support S, the occupied taps, ascending, and
only its window [S[0], S[-1]] is convolved: the rest of the range
window receives nothing from it.  The lines go through the FFT pair
unless they are sparse: when |S| P <= nfft for P waveform samples and
nfft = next_fast_len(L + P - 1), the whole window's transform length,
the direct sum costs at most one such transform of multiplies per
line, and the lines are convolved directly over S instead.  A target
channel has a few such taps, dense clutter hundreds.  An FFT-routed
channel is transformed over its window only, at next_fast_len(span +
P - 1) for span = S[-1] - S[0] + 1 taps.  The route and the transform
length depend only on the channel's own support.

The binary cube file format (magic RFCUBE01) is little-endian:

    offset  type    field
    0       8s      magic "RFCUBE01"
    8       u32     C CPIs, always 1
    12      u32     N receive channels
    16      u32     M pulses
    20      u32     R range samples
    24      f64     sample rate, Hz
    32      f64     PRF, Hz
    40      f64     noise power (complex variance per sample)
    48      f64     carrier, Hz
    56      f32*2NMR interleaved I/Q, channel-major (n, m, r) C order
"""

from __future__ import annotations

import os
import struct
import threading
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.fft import next_fast_len

from .binfile import read_framed, write_framed
from .channel import ChannelImpulseResponse
from .errors import ConfigurationError
from .seeding import STREAM_NOISE, derive_rng
from .waveform import Waveform
from .workers import run_blocks

_MAGIC = b"RFCUBE01"
_HEADER = struct.Struct("<8sIIIIdddd")

# The values kept for replay, two slots of one protocol, each (key,
# value): key names the last request for the slot and value is None
# until that key repeats, then the read-only array built for it (see
# `_claim`, `_commit` and `assemble_cube`).
#   - `_noise`: key (seed, cpi_index, N, M, R) of the last noisy cube
#     request, value its (N, M, R) complex64 unit noise (8 N M R bytes);
#   - `_transforms`: key (channel, F), a weak reference to the last
#     channel that held a request's largest window transform and that
#     transform length F; value its (N, M, F) complex128 window FFTs
#     (16 N M F bytes), freed with the channel.
# Keys are compared with `==`: a weak reference to a live channel
# compares by the channel's identity, and equal keys have equal values.
# One lock orders the updates of both; it is reentrant because the
# channel's weak-reference callback may run on a thread that holds it,
# and a forked child, which has none of its parent's threads, makes its
# own.
_noise: tuple[tuple | None, np.ndarray | None] = (None, None)
_transforms: tuple[tuple | None, np.ndarray | None] = (None, None)
_kept_lock = threading.RLock()


def _new_kept_lock() -> None:
    global _kept_lock
    _kept_lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_kept_lock)


def _claim(slot: tuple, key: tuple) -> tuple:
    """One request for `key` against a replay slot (key, value), made
    under `_kept_lock`: the slot after it, the kept value to read (None
    if there is none) and whether the request fills a new one.  A key
    unequal to the slot's is recorded and nothing is kept; the slot's
    key reads a kept value, and with none kept yet the request fills
    one."""
    last, held = slot
    if last != key:
        return (key, None), None, False
    return slot, held, held is None


def _commit(slot: tuple, key: tuple, value: np.ndarray) -> tuple:
    """The slot once every block has filled `value` for `key`, the key
    its request claimed: `value` kept, read-only, unless an unequal key
    has taken the slot since.  Made under `_kept_lock`."""
    value.setflags(write=False)
    return (key, value) if slot[0] == key else slot


def _drop_transforms(channel_ref: weakref.ref) -> None:
    """Free the kept window transforms with their channel."""
    global _transforms
    with _kept_lock:
        key = _transforms[0]
        if key is not None and key[0] is channel_ref:
            _transforms = (None, None)


@dataclass(frozen=True, eq=False)
class DataCube:
    """One CPI of receiver samples, fixed at construction: the samples
    are adopted without a copy and made read-only, and a leading axis
    other than 1 is a ConfigurationError."""

    samples: np.ndarray          # (1, N, M, R) complex64, the values a cube file stores
    sample_rate: float           # Hz
    prf: float                   # Hz
    noise_power: float           # complex variance per sample
    carrier_hz: float = 0.0

    def __post_init__(self):
        samples = np.ascontiguousarray(self.samples, dtype=np.complex64)
        if samples.ndim != 4 or not all(samples.shape[1:]):
            raise ConfigurationError(
                f"cube samples must have shape (1, N, M, R), N, M, R >= 1, got {samples.shape}")
        if samples.shape[0] != 1:
            raise ConfigurationError(f"the cube holds {len(samples)} CPIs, not one")
        if not (np.isfinite(self.sample_rate) and self.sample_rate > 0
                and np.isfinite(self.prf) and self.prf > 0):
            raise ConfigurationError("sample_rate and prf must be positive and finite")
        if not (np.isfinite(self.noise_power) and self.noise_power >= 0):
            raise ConfigurationError("noise_power must be non-negative and finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

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


def assemble_cube(groups: Sequence[tuple[Sequence[ChannelImpulseResponse], object]],
                  noise_power: float, seed: int, carrier_hz: float = 0.0,
                  cpi_index: int = 0) -> DataCube:
    """The receiver's one-CPI cube, samples (1, N, M, L + P - 1) complex64,
    for one transmitter or several.

    Each group is one transmitter: its channels to the receive array,
    such as its clutter and its target channel, and the waveform it
    radiates (one Waveform or a per-pulse sequence).  Every group needs
    at least one channel, and every channel and waveform must agree
    with the first channel: dimensions (N, M, L), sample rate (to 1e-6
    relative) and PRF (to 1e-6 relative); every waveform must have one
    length P.  Anything else is a ConfigurationError.  The cube carries
    the first channel's rate and PRF.  One transmitter with [clutter,
    target] gives `simulate_cube`'s bytes.

    The samples are circular Gaussian noise of variance `noise_power`
    per sample plus every channel convolved with its pulses, added to
    the noise in complex128 in the order given and rounded once to
    complex64, the rounding a cube file applies; a sample beyond the
    complex64 range is a ConfigurationError, not an inf.  Each receive channel
    n draws its noise from `derive_rng(seed, STREAM_NOISE, 0, cpi_index,
    n)`, where 0 fills the key's receiver slot (there is one receiver):
    M R float64 uniforms u, then M R float32 uniforms v, for R = L + P
    - 1.  In float32 the radius is r = sqrt(-2 ln(1 - u)), 1 - u
    rounded to float32, and the angle t = 2 pi v, which make the
    complex64 unit normal z = r (cos t + i sin t); z is scaled by
    sqrt(noise_power / 2) in complex128, so the scale itself never
    underflows or overflows float32.  The 53-bit u caps a noise
    sample's power at 53 ln 2 (about 36.7) times `noise_power`, a
    probability of about 1e-16, and the angle has 2^24 levels.  Zero
    noise power draws nothing and starts the lines at +0.0, so they
    hold no -0.0.  The noise is keyed by index alone, so it does not
    depend on evaluation order, worker count, channel blocking, or
    which CPIs are simulated.

    The unit noise z depends on (seed, cpi_index, N, M, R) only, and a
    channel's window transforms on the channel and the window's
    transform length F = next_fast_len(W) (below) only, so a CPI
    replayed with several waveforms draws and transforms them at most
    twice.  The process keeps each in a slot of one protocol (module
    state `_noise` and `_transforms`, `_claim` and `_commit`): the key
    of the last request for the slot and, once that key repeats, its
    value:
      - a key other than the last one computes in each worker's
        scratch, records the key and drops any kept value;
      - the last key repeated, with no value kept, computes into a new
        array, which is kept, read-only, once every block has finished;
      - the kept key reads the kept value, so all three give the same
        bytes.
    A simulation, whose keys never repeat, keeps nothing.

    The noise slot's key is (seed, cpi_index, N, M, R) and its value the
    (N, M, R) complex64 z, 8 N M R bytes; the kept key builds no
    generators, and each line starts as kept z times the scale in
    complex128, the multiply a fresh draw makes.  Zero noise power
    reads and changes none of it.

    The transforms slot is claimed by the FFT-routed channel with the
    largest transform of the request (the first of equals), the one
    whose forward FFTs cost the most.  Its key is a weak reference to
    that channel, which cannot change after construction, and F; its
    value is the channel's (N, M, F) complex128 window FFTs,
    16 N M F bytes, which the kept key multiplies by the waveform
    spectrum without a forward FFT of its own, the product the
    in-place path forms.  Another channel, even one with equal taps,
    or another F is another key.  The slot is emptied when its channel
    is freed, so it never outlives the channel.  Other channels, and a
    request with no FFT-routed channel, neither read nor change it.

    Receive channel n goes to block n % W', where W' is the smaller of
    the channel count and the CPUs this process may run on; block 0
    runs on the calling thread and each other block as one task of the
    shared pool (`workers.run_blocks`).  The noise generators and each
    channel's waveform spectrum are computed here, before dispatch.
    Each block owns a complex128 (M, R) line buffer and one (M, nfft)
    buffer: a channel's noise draw keeps u, then z over it (unless z
    goes to the kept array), in the buffer's first 8 M R bytes, r in
    the next 4 M R and v in the next, and writes the scaled noise into
    the lines; then the channel's tap lines are convolved through the
    buffer and added to the lines, which are rounded into the cube.  So
    the working set is the cube (8 N M R bytes) plus the two buffers
    per worker, and the kept z and transforms while they are filled.
    Every tap line goes through the same arithmetic, and the noise and
    the channels are added in the same order, as in a whole-cube
    evaluation, so the bytes do not depend on the blocking or the
    worker count.

    A channel with support S yields the W = S[-1] - S[0] + P output
    samples from offset S[0].  If |S| P <= nfft, the buffer's first W
    columns are zeroed and, for s in S ascending, the tap at s times
    the waveform rows is added at column s - S[0]; otherwise the taps
    are placed at those columns of a zeroed next_fast_len(W)-column
    block, which is transformed, multiplied by the waveform spectrum of
    that length and transformed back.  The W samples are added to the
    lines from offset S[0], and the rest of the lines receive nothing,
    so superposition stays exact.  An empty support (a shadowed
    channel) yields nothing.
    """
    if not (np.isfinite(noise_power) and noise_power >= 0):
        raise ConfigurationError(
            f"noise_power must be non-negative and finite, got {noise_power}")
    if not groups or not all(irs for irs, _ in groups):
        raise ConfigurationError(
            "a cube needs at least one waveform, each with at least one channel")
    ref = groups[0][0][0]
    n_ch, n_pulses, n_taps = dims = (ref.num_channels, ref.num_pulses, ref.num_taps)
    for irs, _ in groups:
        for ir in irs:
            got = (ir.num_channels, ir.num_pulses, ir.num_taps)
            if got != dims:
                raise ConfigurationError(f"channel dimensions {got} differ from {dims}")
            if abs(ir.sample_rate - ref.sample_rate) > 1e-6 * ref.sample_rate:
                raise ConfigurationError(
                    f"channel sample rates {ir.sample_rate} and {ref.sample_rate} differ")
            if abs(ir.prf - ref.prf) > 1e-6 * ref.prf:
                raise ConfigurationError(f"channel PRFs {ir.prf} and {ref.prf} differ")
    rows = [_waveform_rows(waveforms, ref) for _, waveforms in groups]
    p = rows[0].shape[1]
    if any(r.shape[1] != p for r in rows):
        raise ConfigurationError("the waveforms of one cube must share one length")
    n_out = n_taps + p - 1
    nfft = next_fast_len(n_out)
    direct_limit = nfft // p    # |S| P <= nfft
    # per channel: its waveform rows, the offset and width of its output
    # window, and the waveform spectrum of its window FFT (None: direct)
    terms = []
    for (irs, _), r in zip(groups, rows):
        for ir in irs:
            lo = int(ir.support[0]) if ir.support.size else 0
            width = int(ir.support[-1]) - lo + p if ir.support.size else 0
            spectrum = (np.fft.fft(r, next_fast_len(width), axis=1)
                        if ir.support.size > direct_limit else None)
            terms.append((ir, r, lo, width, spectrum))
    # the FFT-routed term with the largest transform (the first of equals)
    # claims the transforms slot, and any noise the noise slot
    global _noise, _transforms
    slot = max((i for i, term in enumerate(terms) if term[4] is not None),
               key=lambda i: terms[i][4].shape[1], default=None)
    windows = fill_windows = None
    if slot is not None:
        slot_ir, size = terms[slot][0], terms[slot][4].shape[1]
        channel_key = (weakref.ref(slot_ir, _drop_transforms), size)
        with _kept_lock:
            _transforms, windows, filling = _claim(_transforms, channel_key)
        if filling:
            windows = fill_windows = np.empty((n_ch, n_pulses, size), dtype=np.complex128)
    kept = fill = None
    if noise_power > 0.0:
        key = (seed, cpi_index, n_ch, n_pulses, n_out)
        with _kept_lock:
            _noise, kept, filling = _claim(_noise, key)
        if filling:
            fill = np.empty((n_ch, n_pulses, n_out), dtype=np.complex64)
    rngs = ([derive_rng(seed, STREAM_NOISE, 0, cpi_index, n) for n in range(n_ch)]
            if noise_power > 0.0 and kept is None else None)
    scale = np.sqrt(noise_power / 2.0)    # float64, so the scaling is complex128
    cube = np.empty((1, n_ch, n_pulses, n_out), dtype=np.complex64)
    count = n_pulses * n_out    # the samples of one channel's lines

    def assemble(channels: range) -> None:
        lines = np.empty((n_pulses, n_out), dtype=np.complex128)
        buf = np.empty((n_pulses, nfft), dtype=np.complex128)
        # the noise draw's scratch, in bytes of buf for c = count: u at
        # [0, 8c), overlaid by z once u is consumed (unless z is kept),
        # r [8c, 12c), v [12c, 16c)
        words = buf.reshape(-1).view(np.float32)
        u = buf.reshape(-1).view(np.float64)[:count].reshape(n_pulses, n_out)
        scratch_z = buf.reshape(-1).view(np.complex64)[:count].reshape(n_pulses, n_out)
        r = words[2 * count:3 * count].reshape(n_pulses, n_out)
        v = words[3 * count:4 * count].reshape(n_pulses, n_out)
        for n in channels:
            if kept is not None:
                np.multiply(kept[n], scale, out=lines)
            elif rngs is None:
                lines[...] = 0.0
            else:
                z = scratch_z if fill is None else fill[n]
                rngs[n].random(out=u)
                rngs[n].random(dtype=np.float32, out=v)
                np.subtract(1.0, u, out=r)           # rounded to float32, in (0, 1]
                np.log(r, out=r)
                np.multiply(r, np.float32(-2.0), out=r)
                np.sqrt(r, out=r)
                np.multiply(v, np.float32(2.0 * np.pi), out=v)
                np.cos(v, out=z.real)
                np.multiply(z.real, r, out=z.real)
                np.sin(v, out=v)
                np.multiply(v, r, out=z.imag)
                np.multiply(z, scale, out=lines)
            for i, (ir, waveform_rows, lo, width, spectrum) in enumerate(terms):
                taps = ir.taps[n]
                if spectrum is not None:
                    size = spectrum.shape[1]
                    out = buf.reshape(-1)[:n_pulses * size].reshape(n_pulses, size)
                    transformed = windows[n] if i == slot and windows is not None else out
                    if transformed is out or fill_windows is not None:
                        out[...] = 0.0
                        out[:, ir.support - lo] = taps
                        np.fft.fft(out, axis=1, out=transformed)
                    np.multiply(transformed, spectrum, out=out)
                    np.fft.ifft(out, axis=1, out=out)
                else:
                    out = buf
                    out[:, :width] = 0.0
                    for j, s in enumerate((ir.support - lo).tolist()):
                        out[:, s:s + p] += taps[:, j, None] * waveform_rows
                lines[:, lo:lo + width] += out[:, :width]
            # errstate is per thread, so each block sets its own
            with np.errstate(over="raise"):
                cube[0, n] = lines

    try:
        run_blocks(assemble, n_ch)
    except FloatingPointError as exc:
        raise ConfigurationError(
            f"the cube samples exceed the complex64 range (noise power {noise_power:g}, "
            "or the channels convolved with the waveforms)") from exc
    with _kept_lock:
        if fill is not None:
            _noise = _commit(_noise, key, fill)
        if fill_windows is not None:
            _transforms = _commit(_transforms, channel_key, fill_windows)
    return DataCube(samples=cube, sample_rate=ref.sample_rate, prf=ref.prf,
                    noise_power=noise_power, carrier_hz=carrier_hz)


def simulate_cube(clutter_ir: ChannelImpulseResponse | None,
                  target_ir: ChannelImpulseResponse | None,
                  waveforms, noise_power: float, seed: int,
                  carrier_hz: float = 0.0, cpi_index: int = 0) -> DataCube:
    """One-CPI receiver cube: clutter return + target return + noise.

    The two channels are convolved separately and summed, so the cube of
    the combined scene equals the sum of the single-channel cubes
    exactly.  The range window is the full convolution length L + P - 1.
    `waveforms` is one Waveform or one per pulse.  At least one channel
    is needed, and `assemble_cube` checks that the channels and the
    waveforms agree.
    """
    irs = [ir for ir in (clutter_ir, target_ir) if ir is not None]
    return assemble_cube([(irs, waveforms)], noise_power, seed, carrier_hz, cpi_index)


def write_cube(path, cube: DataCube) -> str:
    """Write a cube file, C = 1; returns its SHA-256 hex digest.  The
    cube's complex64 samples are written as they are held, with no
    copy."""
    return write_framed(path, _HEADER.pack(_MAGIC, 1, cube.num_channels,
                                           cube.num_pulses, cube.num_range_samples,
                                           cube.sample_rate, cube.prf, cube.noise_power,
                                           cube.carrier_hz),
                        np.ascontiguousarray(cube.samples, dtype="<c8"))


def read_cube(path, sha256: str | None = None) -> DataCube:
    """Read a cube file; `sha256`, when given, is the hex digest the
    whole file must have.  A header whose CPI count C is not 1 is a
    ConfigurationError, raised before any payload byte is read."""
    def one_cpi(c, *_):
        if c != 1:
            raise ConfigurationError(f"{path}: the cube file holds {c} CPIs, not one")

    (_, _, _, _, fs, prf, sigma2, carrier), _, samples = read_framed(
        path, _HEADER, _MAGIC, "data-cube", lambda c, n, m, r, *_: (c, n, m, r),
        sha256=sha256, check=one_cpi)
    return DataCube(samples=samples, sample_rate=fs, prf=prf, noise_power=sigma2,
                    carrier_hz=carrier)
