"""Waveform generation and the RFWAV file format."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfclutter.errors import ConfigurationError
from rfclutter.waveform import (Waveform, lfm, normalize_energy, phase_code,
                                read_waveform, write_waveform)


def acf_width_3db(samples: np.ndarray, sample_rate: float,
                  oversample: int = 32, window_samples: float = 6.0) -> float:
    """-3 dB autocorrelation mainlobe width in seconds.

    Band-limited interpolation: the ACF is evaluated at fractional lags
    around zero straight from the power spectrum, so the measurement is
    independent of the library's processing chain and not quantized to
    whole samples.
    """
    n = samples.shape[0]
    nfft = 1 << int(np.ceil(np.log2(4 * n)))
    power = np.abs(np.fft.fft(samples, nfft)) ** 2
    freqs = np.fft.fftfreq(nfft)
    lags = np.arange(-window_samples * oversample,
                     window_samples * oversample + 1) / oversample
    acf = np.exp(2j * np.pi * np.outer(lags, freqs)) @ power
    mag = np.abs(acf)
    peak = int(np.argmax(mag))
    half = mag[peak] / np.sqrt(2.0)
    right = peak
    while right < len(mag) - 1 and mag[right + 1] >= half:
        right += 1
    left = peak
    while left > 0 and mag[left - 1] >= half:
        left -= 1
    return (lags[right] - lags[left]) / sample_rate


def test_lfm_basic_shape():
    wf = lfm(5e6, 20e-6, 5e6)
    assert wf.num_samples == 100
    assert wf.energy == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(np.abs(wf.samples), np.abs(wf.samples[0]), rtol=1e-12)


def test_lfm_down_is_conjugate_of_up():
    up = lfm(2e6, 50e-6, 4e6, direction="up")
    down = lfm(2e6, 50e-6, 4e6, direction="down")
    np.testing.assert_allclose(down.samples, np.conj(up.samples), atol=1e-15)


@pytest.mark.parametrize("bandwidth", [1e6, 5e6, 20e6])
def test_lfm_compressed_mainlobe_near_one_over_b(bandwidth):
    """-3 dB ACF mainlobe within 20% of 1/B (measured, not assumed)."""
    duration = 400.0 / bandwidth          # time-bandwidth 400
    fs = 2.0 * bandwidth
    wf = lfm(bandwidth, duration, fs)
    width = acf_width_3db(wf.samples, fs)
    assert abs(width - 1.0 / bandwidth) / (1.0 / bandwidth) < 0.20


def test_lfm_spectrum_occupancy():
    """Energy fraction inside [-B/2, B/2] >= 0.9 for TB >= 50."""
    b, t, fs = 5e6, 20e-6, 20e6           # TB = 100
    wf = lfm(b, t, fs)
    nfft = 1 << 14
    spec = np.abs(np.fft.fft(wf.samples, nfft)) ** 2
    freqs = np.fft.fftfreq(nfft, 1.0 / fs)
    inside = spec[np.abs(freqs) <= b / 2.0].sum()
    assert inside / spec.sum() >= 0.9


def test_lfm_validation():
    with pytest.raises(ConfigurationError):
        lfm(5e6, 0.0, 5e6)
    with pytest.raises(ConfigurationError):
        lfm(5e6, 1e-5, 4e6)          # undersampled
    with pytest.raises(ConfigurationError):
        lfm(5e6, 1e-5, 5e6, direction="sideways")



@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
def test_waveform_rejects_non_finite_sample_rate(rate):
    with pytest.raises(ConfigurationError):
        Waveform(samples=np.ones(4), sample_rate=rate)


def test_normalize_energy_idempotent():
    wf = Waveform(samples=np.array([3.0 + 4j, 1.0, -2j]), sample_rate=1e6)
    once = normalize_energy(wf)
    twice = normalize_energy(once)
    assert once.energy == pytest.approx(1.0, rel=1e-12)
    # idempotent to the ulp (the second pass divides by sqrt(1 - eps))
    np.testing.assert_allclose(twice.samples, once.samples, rtol=1e-15, atol=0)


def test_normalize_rejects_zero():
    wf = Waveform(samples=np.zeros(4, dtype=complex), sample_rate=1e6)
    with pytest.raises(ValueError):
        normalize_energy(wf)


@settings(max_examples=25)
@given(st.integers(1, 256), st.integers(0, 2 ** 31))
def test_phase_code_properties(n, seed):
    wf = phase_code(n, 1e6, seed)
    assert wf.num_samples == n
    assert wf.energy == pytest.approx(1.0, rel=1e-12)
    # unit-modulus chips after normalization: all equal magnitude
    np.testing.assert_allclose(np.abs(wf.samples), 1.0 / np.sqrt(n), rtol=1e-12)
    again = phase_code(n, 1e6, seed)
    np.testing.assert_array_equal(wf.samples, again.samples)


def test_waveform_round_trip(tmp_path):
    wf = lfm(5e6, 20e-6, 5e6)
    path = tmp_path / "chirp.rfwav"
    write_waveform(path, wf)
    back = read_waveform(path)
    assert back.sample_rate == wf.sample_rate
    assert back.num_samples == wf.num_samples
    # payload is f32 I/Q; round trip through f32 is exact on re-read
    np.testing.assert_array_equal(back.samples,
                                  wf.samples.astype(np.complex64).astype(np.complex128))


def test_waveform_round_trip_keeps_signed_zeros(tmp_path):
    """The stored float32 bits come back as they are, the sign of a zero
    I or Q value included."""
    wf = Waveform(np.array([complex(1.0, -0.0), complex(-0.0, 0.5), complex(-0.0, -0.0)]),
                  sample_rate=5e6)
    path = tmp_path / "zeros.rfwav"
    digest = write_waveform(path, wf)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    back = read_waveform(path)
    assert back.samples.tobytes() == wf.samples.tobytes()
    assert np.signbit(back.samples.view(np.float64)).tolist() == [False, True, True,
                                                                  False, True, True]


def test_waveform_reader_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.rfwav"
    path.write_bytes(b"NOTAWAVE" + b"\x00" * 16)
    with pytest.raises(ConfigurationError):
        read_waveform(path)


def test_waveform_reader_rejects_truncation(tmp_path):
    wf = lfm(1e6, 1e-5, 2e6)
    path = tmp_path / "cut.rfwav"
    write_waveform(path, wf)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(ConfigurationError):
        read_waveform(path)


@pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                   complex(-np.inf, 1.0)])
def test_waveform_rejects_non_finite_samples(value):
    samples = lfm(1e6, 1e-5, 2e6).samples.copy()
    samples[3] = value
    with pytest.raises(ConfigurationError, match="finite"):
        Waveform(samples=samples, sample_rate=2e6)
