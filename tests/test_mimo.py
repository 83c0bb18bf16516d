"""Multi-transmitter cubes: superposition over transmitters, waveform cross-talk."""

import numpy as np
import pytest

from rfclutter.channel import ChannelImpulseResponse
from rfclutter.dsp import LEAKAGE_FLOOR_DB, cross_channel_leakage
from rfclutter.errors import ConfigurationError
from rfclutter.rxsim import DataCube, assemble_cube, simulate_cube
from rfclutter.seeding import STREAM_NOISE, derive_rng
from rfclutter.waveform import Waveform, lfm, phase_code

from oracles import oracle_lines, support_rule_samples

FS = 10e6
PRF = 2000.0


def random_ir(seed, n=2, m=8, taps=24, prf=PRF):
    rng = derive_rng(seed, 555)
    t = rng.standard_normal((n, m, taps)) + 1j * rng.standard_normal((n, m, taps))
    return ChannelImpulseResponse(taps=t.astype(np.complex64), sample_rate=FS, prf=prf)


def delta_ir(tap, total_taps, n=1, m=4, amp=1.0):
    t = np.zeros((n, m, total_taps), dtype=np.complex64)
    t[:, :, tap] = amp
    return ChannelImpulseResponse.from_dense(t, sample_rate=FS, prf=PRF)


def test_single_pair_matches_plain_simulator_exactly():
    """One transmitter must be bit-identical to the single-transmitter
    path, with a clutter channel alone and with clutter plus a sparse
    target channel."""
    clutter = random_ir(1)
    wf = phase_code(12, FS, seed=9)
    for target in (None, delta_ir(5, 24, n=2, m=8, amp=0.25)):
        channels = [clutter] if target is None else [clutter, target]
        mimo = assemble_cube([(channels, wf)], noise_power=0.5, seed=77,
                             carrier_hz=9e9, cpi_index=2)
        plain = simulate_cube(clutter, target, wf, noise_power=0.5, seed=77,
                              carrier_hz=9e9, cpi_index=2)
        assert isinstance(mimo, DataCube)
        assert mimo.samples.tobytes() == plain.samples.tobytes()
        assert ((mimo.sample_rate, mimo.prf, mimo.noise_power, mimo.carrier_hz)
                == (plain.sample_rate, plain.prf, plain.noise_power, plain.carrier_hz))


def test_multi_tx_cube_is_superposition():
    """Each transmitter's cube is its complex128 lines rounded once, and
    the two-transmitter cube is the sum of those lines rounded once."""
    ir_a, ir_b = random_ir(2), random_ir(3)
    wf_a = lfm(bandwidth=2e6, duration=1.6e-6, sample_rate=FS)
    wf_b = phase_code(16, FS, seed=4)
    both = assemble_cube([([ir_a], wf_a), ([ir_b], wf_b)], noise_power=0.0, seed=1)
    only_a = assemble_cube([([ir_a], wf_a)], noise_power=0.0, seed=1)
    only_b = assemble_cube([([ir_b], wf_b)], noise_power=0.0, seed=1)
    lines_a = oracle_lines([(ir_a, wf_a)], 0.0, 1)
    lines_b = oracle_lines([(ir_b, wf_b)], 0.0, 1)
    assert only_a.samples.tobytes() == lines_a.astype(np.complex64).tobytes()
    assert only_b.samples.tobytes() == lines_b.astype(np.complex64).tobytes()
    assert both.samples.tobytes() == (lines_a + lines_b).astype(np.complex64).tobytes()


def test_receiver_noise_streams_are_independent():
    """Two receive channels with the same taps get different noise,
    channel n's noise is the Box-Muller pair of the (seed, STREAM_NOISE,
    0, cpi, n) stream's float64 radius and float32 angle uniforms, and
    the same seed repeats it.  The channel's lines are added to it in
    complex128 and the sum is rounded once."""
    one = random_ir(4, n=1)
    ir = ChannelImpulseResponse(taps=np.repeat(one.taps, 2, axis=0), sample_rate=FS, prf=PRF)
    wf = phase_code(12, FS, seed=9)
    cube = assemble_cube([([ir], wf)], noise_power=1.0, seed=5, cpi_index=3)
    quiet = assemble_cube([([ir], wf)], noise_power=0.0, seed=5, cpi_index=3)
    noise = cube.samples[0] - quiet.samples[0]
    assert np.abs(noise[0] - noise[1]).max() > 0.0   # same signal, different noise
    shape = cube.samples.shape[2:]
    signal = support_rule_samples(ir, wf)
    for n in range(2):
        rng = derive_rng(5, STREAM_NOISE, 0, 3, n)
        u = rng.random(shape)
        v = rng.random(shape, dtype=np.float32)
        radius = np.sqrt(-2 * np.log((1 - u).astype(np.float32)))
        angle = 2 * np.pi * v
        unit = np.empty(shape, dtype=np.complex64)
        unit.real = radius * np.cos(angle)
        unit.imag = radius * np.sin(angle)
        # the noise comes first and the channel's samples are added to it
        want = (unit * np.sqrt(0.5) + signal[n]).astype(np.complex64)
        assert cube.samples[0, n].tobytes() == want.tobytes()
    again = assemble_cube([([ir], wf)], noise_power=1.0, seed=5, cpi_index=3)
    assert again.samples.tobytes() == cube.samples.tobytes()


def test_pair_dimension_guards():
    """Transmitters whose channels disagree in dimensions or PRF, a
    transmitter with no channel and waveforms of two lengths are
    rejected, not labelled with transmitter 0's values."""
    ir = random_ir(6)
    wf = phase_code(12, FS, seed=9)
    cases = [
        ([([ir], wf), ([random_ir(7, taps=10)], wf)], "dimensions"),
        ([([ir], wf), ([random_ir(8, n=3)], wf)], "dimensions"),
        ([([ir], wf), ([ir], phase_code(13, FS, seed=9))], "one length"),
        ([], "at least one"),
        ([([ir], wf), ([random_ir(6, prf=3000.0)], wf)], "PRFs"),
        ([([ir, random_ir(6, prf=3000.0)], wf)], "PRFs"),
        ([([ir], wf), ([], wf)], "at least one channel"),
    ]
    for groups, match in cases:
        with pytest.raises(ConfigurationError, match=match):
            assemble_cube(groups, noise_power=0.0, seed=1)


def test_identical_waveforms_leak_at_zero_db():
    wf = phase_code(16, FS, seed=11)
    irs = [delta_ir(3, 40), delta_ir(3, 40)]
    cubes = [assemble_cube([([ir], wf)], noise_power=0.0, seed=1)
             for ir in irs]
    leak = cross_channel_leakage(cubes, [wf, wf])
    np.testing.assert_allclose(leak, 0.0, atol=1e-9)


def test_disjoint_support_waveforms_hit_the_floor():
    """Waveforms with non-overlapping time support cannot cross-correlate."""
    a = np.zeros(16, dtype=np.complex128)
    b = np.zeros(16, dtype=np.complex128)
    a[:8] = 1.0 / np.sqrt(8.0)
    b[8:] = 1.0 / np.sqrt(8.0)
    wf_a = Waveform(samples=a, sample_rate=FS)
    wf_b = Waveform(samples=b, sample_rate=FS)
    # a one-tap channel keeps the receive frame at exactly P samples, so the
    # matched filter evaluates only the zero lag, where the disjoint halves
    # give an exact zero cross product
    ir = delta_ir(0, 1)
    cubes = [assemble_cube([([ir], w)], noise_power=0.0, seed=1)
             for w in (wf_a, wf_b)]
    leak = cross_channel_leakage(cubes, [wf_a, wf_b])
    assert leak[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert leak[1, 1] == pytest.approx(0.0, abs=1e-9)
    assert leak[0, 1] == LEAKAGE_FLOOR_DB
    assert leak[1, 0] == LEAKAGE_FLOOR_DB


def test_chirp_pair_sits_between_floor_and_unity():
    wf_up = lfm(bandwidth=4e6, duration=6.4e-6, sample_rate=FS)
    wf_dn = lfm(bandwidth=4e6, duration=6.4e-6, sample_rate=FS, direction="down")
    ir = delta_ir(0, wf_up.samples.shape[0] + 20)
    cubes = [assemble_cube([([ir], w)], noise_power=0.0, seed=1)
             for w in (wf_up, wf_dn)]
    leak = cross_channel_leakage(cubes, [wf_up, wf_dn])
    off = leak[0, 1]
    assert LEAKAGE_FLOOR_DB < off < -3.0
    assert leak[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_leakage_validation():
    wf = phase_code(8, FS, seed=2)
    ir = delta_ir(0, 20)
    cube = assemble_cube([([ir], wf)], noise_power=0.0, seed=1)
    with pytest.raises(ConfigurationError):
        cross_channel_leakage([cube], [wf, wf])
    zero = ChannelImpulseResponse.from_dense(
        np.zeros((1, 4, 20), dtype=np.complex64), sample_rate=FS, prf=PRF)
    zcube = assemble_cube([([zero], wf)], noise_power=0.0, seed=1)
    with pytest.raises(ValueError):
        cross_channel_leakage([zcube], [wf])


def test_leakage_rejects_a_cube_of_several_cpis():
    """A cube of two CPIs is named at construction, so leakage is never
    measured at its CPI 0."""
    wf = phase_code(8, FS, seed=2)
    one = assemble_cube([([delta_ir(0, 20)], wf)], noise_power=0.0, seed=1)
    with pytest.raises(ConfigurationError, match="2 CPIs"):
        DataCube(samples=np.concatenate([one.samples, one.samples]), sample_rate=FS, prf=PRF,
                 noise_power=0.0)
