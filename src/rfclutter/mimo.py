"""Multi-transmitter (MIMO) channel simulation and separation measurement.

Every transmitter has its own channels to the one receive array, kept
apart as the single-transmitter pipeline keeps them: its clutter
channel and its target channel (`pipeline.mimo_irs`).  The receiver's
cube is the sum over transmitters of each of that transmitter's
channels convolved with its waveform, plus receiver noise, all through
the one cube assembler, so transmitter 0 alone gives the
single-transmitter cube byte for byte.  Waveform separability is
measured by matched-filtering a single-transmitter cube with every
transmitter's waveform and comparing peaks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channel import ChannelImpulseResponse
from .errors import ConfigurationError
from .rxsim import DataCube, _assemble_cube
from .waveform import Waveform


def simulate_mimo_cube(tx_channels: Sequence[Sequence[ChannelImpulseResponse]],
                       waveforms: Sequence[Waveform], noise_power: float,
                       seed: int, carrier_hz: float = 0.0,
                       cpi_index: int = 0) -> DataCube:
    """The receiver's cube for a list of channels per transmitter.

    tx_channels[t] holds the channels from transmitter t to the
    receiver, at least one, such as its clutter and its target
    channel; waveforms[t] is what transmitter t radiates.  The channels
    are added in tx order, and in list order within a transmitter, and
    the noise is the single-transmitter simulator's, so one transmitter
    with [clutter, target] gives `simulate_cube`'s bytes.
    `rxsim._assemble_cube` checks that every channel and waveform agree.
    """
    if len(waveforms) != len(tx_channels):
        raise ConfigurationError(
            f"{len(tx_channels)} transmitters but {len(waveforms)} waveforms")
    return _assemble_cube(list(zip(tx_channels, waveforms)), noise_power, seed, cpi_index,
                          carrier_hz)


LEAKAGE_FLOOR_DB = -300.0


def cross_channel_leakage(single_tx_cubes: Sequence[DataCube],
                          waveforms: Sequence[Waveform], channel: int = 0) -> np.ndarray:
    """Matched-filter cross-talk matrix in dB.

    single_tx_cubes[b] must be generated with only transmitter b
    radiating and hold one CPI.  Entry (a, b) is the peak magnitude of
    waveform a's matched filter applied to cube b, relative to the
    matched peak (a, a), as 20 log10 of the amplitude ratio.  Peaks are
    taken over all pulses and fully-overlapped range lags of one
    receive channel.  An exactly zero cross response reports the floor
    value LEAKAGE_FLOOR_DB.
    """
    from .dsp import pulse_compress  # local import; dsp depends on rxsim

    num_tx = len(waveforms)
    if len(single_tx_cubes) != num_tx:
        raise ConfigurationError(
            f"{num_tx} waveforms but {len(single_tx_cubes)} single-tx cubes")
    peaks = np.empty((num_tx, num_tx))
    for a in range(num_tx):
        for b in range(num_tx):
            x = single_tx_cubes[b].one_cpi()[channel]
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
