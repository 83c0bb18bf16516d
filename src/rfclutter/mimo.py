"""Multi-transmitter (MIMO) channel simulation and separation measurement.

Every transmitter gets its own channel impulse response to the one
receive array; the receiver's cube is the sum over transmitters of that
transmitter's channel convolved with its waveform, plus receiver noise.
Waveform separability is measured by matched-filtering a
single-transmitter cube with every transmitter's waveform and comparing
peaks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channel import ChannelImpulseResponse
from .errors import ConfigurationError
from .rxsim import DataCube, _assemble_cube
from .waveform import Waveform


def simulate_mimo_cube(tx_irs: Sequence[ChannelImpulseResponse],
                       waveforms: Sequence[Waveform], noise_power: float,
                       seed: int, carrier_hz: float = 0.0,
                       cpi_index: int = 0) -> DataCube:
    """The receiver's cube for one channel per transmitter.

    tx_irs[t] is the channel from transmitter t to the receiver;
    waveforms[t] is what transmitter t radiates.  Transmit returns are
    accumulated in tx order and the noise is the single-channel
    simulator's, so one transmitter gives `simulate_cube`'s bytes.
    """
    num_tx = len(tx_irs)
    if num_tx == 0:
        raise ConfigurationError("need at least one transmitter")
    if len(waveforms) != num_tx:
        raise ConfigurationError(
            f"{num_tx} transmitters but {len(waveforms)} waveforms")
    ref = tx_irs[0]
    samples = _assemble_cube([([ir], wf) for ir, wf in zip(tx_irs, waveforms)],
                             noise_power, seed, cpi_index)
    return DataCube(samples=samples, sample_rate=ref.sample_rate, prf=ref.prf,
                    noise_power=noise_power, carrier_hz=carrier_hz,
                    delay_origin=ref.delay_origin)


LEAKAGE_FLOOR_DB = -300.0


def cross_channel_leakage(single_tx_cubes: Sequence[DataCube],
                          waveforms: Sequence[Waveform], cpi: int = 0,
                          channel: int = 0) -> np.ndarray:
    """Matched-filter cross-talk matrix in dB.

    single_tx_cubes[b] must be generated with only transmitter b
    radiating.  Entry (a, b) is the peak magnitude of waveform a's
    matched filter applied to cube b, relative to the matched peak
    (a, a), as 20 log10 of the amplitude ratio.  Peaks are taken over
    all pulses and fully-overlapped range lags of one receive channel.
    An exactly zero cross response reports the floor value
    LEAKAGE_FLOOR_DB.
    """
    from .dsp import pulse_compress  # local import; dsp depends on rxsim

    num_tx = len(waveforms)
    if len(single_tx_cubes) != num_tx:
        raise ConfigurationError(
            f"{num_tx} waveforms but {len(single_tx_cubes)} single-tx cubes")
    peaks = np.empty((num_tx, num_tx))
    for a in range(num_tx):
        for b in range(num_tx):
            x = single_tx_cubes[b].samples[cpi, channel]
            mf = pulse_compress(x, waveforms[a])
            peaks[a, b] = float(np.abs(mf).max())
    out = np.empty((num_tx, num_tx))
    for a in range(num_tx):
        if peaks[a, a] == 0.0:
            raise ValueError(f"matched response ({a}, {a}) is identically zero")
        for b in range(num_tx):
            if peaks[a, b] == 0.0:
                out[a, b] = LEAKAGE_FLOOR_DB
            else:
                out[a, b] = max(LEAKAGE_FLOOR_DB,
                                20.0 * np.log10(peaks[a, b] / peaks[a, a]))
    return out
