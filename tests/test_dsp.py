"""Range-Doppler chain: compression placement, Doppler binning, peak maps."""

import csv
import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len

from rfclutter.dsp import (beamform, doppler_axis, doppler_process, pulse_compress,
                           range_doppler_map, write_map_csv, write_peaks_csv, write_pgm)
from rfclutter.errors import ConfigurationError
from rfclutter.rxsim import DataCube
from rfclutter.seeding import derive_rng
from rfclutter.waveform import Waveform, lfm, phase_code

from oracles import channel_ordered_sum, doppler_bin_for, range_bin_for

FS = 10e6
PRF = 2000.0


def embedded_echo_cube(wf, tap, doppler_hz, num_pulses=32, num_taps=48,
                       num_chan=2, amp=1.0):
    """Noiseless cube holding one echo: waveform at a fixed delay tap with a
    pulse-to-pulse Doppler ramp, copied across channels."""
    p = wf.samples.shape[0]
    r = num_taps + p - 1
    cube = np.zeros((num_chan, num_pulses, r), dtype=np.complex128)
    ramp = np.exp(2j * np.pi * doppler_hz * np.arange(num_pulses) / PRF)
    for m in range(num_pulses):
        cube[:, m, tap:tap + p] += amp * ramp[m] * wf.samples
    return cube


def as_cube(samples):
    """The one-CPI DataCube of (N, M, R) samples."""
    return DataCube(samples=samples[None], sample_rate=FS, prf=PRF, noise_power=0.0)


def test_pulse_compress_places_echo_at_its_tap():
    wf = lfm(bandwidth=2e6, duration=3.2e-6, sample_rate=FS)
    x = np.zeros(80, dtype=np.complex128)
    x[17:17 + wf.samples.shape[0]] = wf.samples
    out = pulse_compress(x, wf)
    assert out.shape[0] == 80 - wf.samples.shape[0] + 1
    assert np.argmax(np.abs(out)) == 17
    # unit-energy waveform vs itself: matched peak is exactly the energy
    assert abs(out[17]) == pytest.approx(1.0, rel=1e-12)


def test_pulse_compress_matches_direct_correlation():
    rng = derive_rng(1, 0)
    wf = phase_code(16, FS, seed=4)
    x = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    out = pulse_compress(x, wf)
    want = np.array([np.sum(x[l:l + 16] * wf.samples.conj())
                     for l in range(50 - 16 + 1)])
    np.testing.assert_allclose(out, want, atol=1e-12 * np.abs(want).max())


def test_pulse_compress_shape_guard():
    wf = phase_code(16, FS, seed=4)
    with pytest.raises(ConfigurationError):
        pulse_compress(np.zeros(10, dtype=complex), wf)
    with pytest.raises(ValueError):
        pulse_compress(np.zeros(30, dtype=complex),
                       Waveform(samples=np.zeros(4, dtype=np.complex128),
                                sample_rate=FS))


def test_beamform_is_weighted_sum():
    rng = derive_rng(2, 0)
    cube = as_cube(rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5)))
    x = cube.samples[0].astype(np.complex128)
    w = np.array([1.0, 1j, -0.5])
    y = beamform(cube, w)
    want = x[0] - 1j * x[1] - 0.5 * x[2]
    np.testing.assert_allclose(y, want, rtol=0.0, atol=1e-6 * np.abs(want).max())
    with pytest.raises(ConfigurationError):
        beamform(cube, np.ones(2))


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("shape", [(4, 16, 400), (3, 7, 13), (5, 9, 1), (32, 5, 2334)])
def test_beamform_is_the_channel_ordered_sum_at_any_worker_count(shape, workers,
                                                                 set_worker_count):
    """Pulse rows spread over any number of workers give the channel-
    ordered complex64 sum bit for bit.  (A cube with no channels is
    refused at construction, `test_rxsim`'s empty-axis test.)"""
    rng = derive_rng(4, 0)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    w = rng.standard_normal(shape[0]) + 1j * rng.standard_normal(shape[0])
    set_worker_count(workers)
    y = beamform(as_cube(x), w)
    assert y.dtype == np.complex64 and y.shape == shape[1:]
    assert y.tobytes() == channel_ordered_sum(x, w).tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("shape", [(64, 300), (7, 50), (50,), (3, 4, 40), (1, 17), (0, 30)])
def test_pulse_compress_is_one_fft_pair_per_row_at_any_worker_count(shape, workers,
                                                                    set_worker_count):
    """Rows spread over any number of workers give the bytes of one
    complex128 FFT pair over the whole array, for any leading shape, a
    1-D input and a complex64 input included."""
    rng = derive_rng(5, 0)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    wf = Waveform(samples=phase_code(16, FS, seed=6).samples.astype(np.complex64),
                  sample_rate=FS)
    nfft = next_fast_len(shape[-1])
    spectrum = np.fft.fft(x.astype(np.complex128), nfft, axis=-1)
    want = np.fft.ifft(spectrum * np.fft.fft(wf.samples, nfft).conj(),
                       axis=-1)[..., :shape[-1] - 15]
    set_worker_count(workers)
    out = pulse_compress(x, wf)
    assert out.dtype == np.complex128 and out.shape == want.shape
    assert out.tobytes() == np.ascontiguousarray(want).tobytes()


def test_range_doppler_map_is_the_same_at_any_worker_count(set_worker_count):
    """The map and the peak list of a noisy two-echo cube do not depend
    on the worker count."""
    wf = lfm(bandwidth=2e6, duration=3.2e-6, sample_rate=FS)
    echoes = embedded_echo_cube(wf, 7, 250.0, num_chan=5)
    echoes += embedded_echo_cube(wf, 29, -437.5, amp=0.25, num_chan=5)
    rng = derive_rng(6, 0)
    cube = as_cube(echoes + 0.1 * (rng.standard_normal(echoes.shape)
                                   + 1j * rng.standard_normal(echoes.shape)))
    weights = np.exp(0.3j * np.arange(5))
    results = []
    for workers in (1, 2, 3, 8):
        set_worker_count(workers)
        map_db, peaks = range_doppler_map(cube, wf, weights, window="hann")
        results.append((map_db.tobytes(), peaks))
    assert len(results[0][1]) >= 2
    assert all(r == results[0] for r in results[1:])


def test_complex64_cube_is_beamformed_without_a_complex128_copy():
    """A complex64 cube is combined at its own precision: a complex64
    result close to the complex128 sum, and no working copy of the
    cube in complex128."""
    rng = derive_rng(3, 0)
    x = (rng.standard_normal((4, 16, 400)) + 1j * rng.standard_normal((4, 16, 400))).astype(
        np.complex64)
    cube = as_cube(x)
    w = np.array([1.0, 0.5j, -1.0, 2.0])
    tracemalloc.start()
    try:
        y = beamform(cube, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.dtype == np.complex64
    assert peak < x.nbytes
    want = np.tensordot(w.conj(), x.astype(np.complex128), axes=([0], [0]))
    np.testing.assert_allclose(y, want, rtol=0.0, atol=1e-6 * np.abs(want).max())


def test_a_cube_of_several_cpis_is_rejected_not_read_at_cpi_0():
    """A cube of two CPIs is rejected at construction, naming its CPI
    count, so beamform and range_doppler_map never see one to process
    at its CPI 0."""
    wf = phase_code(8, FS, seed=3)
    one = embedded_echo_cube(wf, tap=5, doppler_hz=0.0)
    with pytest.raises(ConfigurationError, match="2 CPIs"):
        DataCube(samples=np.stack([one, 2 * one]), sample_rate=FS, prf=PRF, noise_power=0.0)


def test_doppler_bins_and_axis():
    ax = doppler_axis(8, PRF)
    np.testing.assert_allclose(
        ax, [0, 250, 500, 750, -1000, -750, -500, -250])
    assert doppler_bin_for(250.0, PRF, 8) == 1
    assert doppler_bin_for(-250.0, PRF, 8) == 7
    assert doppler_bin_for(0.0, PRF, 8) == 0
    assert doppler_bin_for(PRF, PRF, 8) == 0          # aliases back to DC
    assert range_bin_for(12.0 / FS, FS) == 12
    assert range_bin_for(20.0 / FS, FS, delay_origin=5.0 / FS) == 15


def test_doppler_process_isolates_a_tone():
    m = 32
    tone = np.exp(2j * np.pi * 5 * np.arange(m) / m)
    spec = doppler_process(tone)
    assert np.argmax(np.abs(spec)) == 5
    assert abs(spec[5]) == pytest.approx(m)
    # hann window spreads into two neighbours but keeps the same argmax
    spec_w = doppler_process(tone, window="hann")
    assert np.argmax(np.abs(spec_w)) == 5
    with pytest.raises(ConfigurationError):
        doppler_process(tone, window="hamming")


def test_map_peak_lands_on_configured_bins():
    wf = lfm(bandwidth=2e6, duration=3.2e-6, sample_rate=FS)
    tap, fd = 11, 625.0
    cube = embedded_echo_cube(wf, tap, fd)
    m, peaks = range_doppler_map(as_cube(cube), wf, np.ones(2))
    assert peaks, "echo should produce at least one peak"
    r_bin, d_bin, db = peaks[0]
    assert r_bin == tap
    assert d_bin == doppler_bin_for(fd, PRF, 32)
    assert db == pytest.approx(0.0, abs=1e-12)   # map normalized to its peak


def test_two_targets_ranked_by_strength():
    wf = lfm(bandwidth=2e6, duration=3.2e-6, sample_rate=FS)
    cube = embedded_echo_cube(wf, 7, 250.0, amp=1.0)
    cube += embedded_echo_cube(wf, 29, -437.5, amp=0.25)
    _, peaks = range_doppler_map(as_cube(cube), wf, np.ones(2))
    assert len(peaks) >= 2
    assert (peaks[0][0], peaks[0][1]) == (7, doppler_bin_for(250.0, PRF, 32))
    assert (peaks[1][0], peaks[1][1]) == (29, doppler_bin_for(-437.5, PRF, 32))
    # 4x amplitude gap: 12 dB apart
    assert peaks[0][2] - peaks[1][2] == pytest.approx(12.04, abs=0.2)


def test_map_invariant_to_global_scaling():
    wf = lfm(bandwidth=2e6, duration=3.2e-6, sample_rate=FS)
    cube = embedded_echo_cube(wf, 11, 625.0)
    m1, p1 = range_doppler_map(as_cube(cube), wf, np.ones(2))
    m2, p2 = range_doppler_map(as_cube(1e6 * cube), wf, np.ones(2))
    np.testing.assert_allclose(m1, m2, atol=1e-9)
    assert [(r, d) for r, d, _ in p1] == [(r, d) for r, d, _ in p2]


def test_zero_cube_floors_with_no_peaks():
    wf = lfm(bandwidth=2e6, duration=3.2e-6, sample_rate=FS)
    cube = as_cube(np.zeros((2, 8, 64)))
    m, peaks = range_doppler_map(cube, wf, np.ones(2), clip_db=50.0)
    assert peaks == []
    np.testing.assert_array_equal(m, -50.0)
    with pytest.raises(ConfigurationError):
        range_doppler_map(cube, wf, np.ones(2), clip_db=0.0)


@pytest.mark.parametrize("levels", [
    {"clip_db": 0.0}, {"clip_db": -1.0}, {"clip_db": float("nan")},
    {"clip_db": float("inf")}, {"clip_db": float("-inf")},
    {"peak_offset_db": float("nan")}, {"peak_offset_db": float("inf")},
    {"peak_offset_db": float("-inf")}], ids=repr)
def test_a_non_finite_or_non_positive_level_is_a_configuration_error(levels, tmp_path):
    """A map's dynamic range must be positive and finite and its peak
    offset finite: no all-NaN map, NaN-cast image or silently empty
    peak list."""
    wf = lfm(bandwidth=2e6, duration=3.2e-6, sample_rate=FS)
    cube = as_cube(embedded_echo_cube(wf, 11, 625.0))
    with pytest.raises(ConfigurationError, match=next(iter(levels))):
        range_doppler_map(cube, wf, np.ones(2), **levels)
    if "clip_db" in levels:
        with pytest.raises(ConfigurationError, match="clip_db"):
            write_pgm(tmp_path / "bad.pgm", np.zeros((2, 2)), clip_db=levels["clip_db"])
        assert not (tmp_path / "bad.pgm").exists()


def test_cube_waveform_rate_mismatch_is_a_configuration_error():
    """A DataCube is compressed only by a waveform at its own sample
    rate, to 1e-6 relative as in cube assembly."""
    wf = lfm(bandwidth=2e6, duration=3.2e-6, sample_rate=FS)
    samples = embedded_echo_cube(wf, 11, 625.0)[None]
    for rate in (FS * (1.0 + 0.9e-6), FS * (1.0 - 0.9e-6)):
        cube = DataCube(samples=samples, sample_rate=rate, prf=PRF, noise_power=0.0)
        _, peaks = range_doppler_map(cube, wf, np.ones(2))
        assert peaks[0][0] == 11
    for rate in (FS / 2.0, 2.0 * FS, FS * (1.0 + 1.1e-6)):
        cube = DataCube(samples=samples, sample_rate=rate, prf=PRF, noise_power=0.0)
        with pytest.raises(ConfigurationError, match="sample rate"):
            range_doppler_map(cube, wf, np.ones(2))


def test_map_floor_respects_clip():
    wf = lfm(bandwidth=2e6, duration=3.2e-6, sample_rate=FS)
    cube = embedded_echo_cube(wf, 11, 625.0)
    m, _ = range_doppler_map(as_cube(cube), wf, np.ones(2), clip_db=40.0)
    assert m.max() == pytest.approx(0.0, abs=1e-12)
    assert m.min() >= -40.0 - 1e-12


def test_map_csv_round_trips_values(tmp_path):
    m = np.array([[0.0, -3.5], [-60.0, -12.25]])
    path = tmp_path / "map.csv"
    write_map_csv(path, m)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    got = np.empty_like(m)
    for row in rows:
        got[int(row["doppler_bin"]), int(row["range_bin"])] = float(row["db"])
    np.testing.assert_array_equal(got, m)


def test_peaks_csv_and_pgm(tmp_path):
    peaks = [(7, 10, 0.0), (29, 18, -12.0)]
    write_peaks_csv(tmp_path / "peaks.csv", peaks)
    with open(tmp_path / "peaks.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(int(r["range_bin"]), int(r["doppler_bin"]), float(r["db"]))
            for r in rows] == peaks

    m = np.array([[0.0, -30.0], [-60.0, -90.0]])
    write_pgm(tmp_path / "m.pgm", m, clip_db=60.0)
    blob = (tmp_path / "m.pgm").read_bytes()
    assert blob.startswith(b"P5\n2 2\n255\n")
    pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
    np.testing.assert_array_equal(pixels, [255, 128, 0, 0])
    with pytest.raises(ConfigurationError):
        write_pgm(tmp_path / "bad.pgm", np.zeros(4))
