"""Sea-surface dynamics: pulse modulation, Doppler-spread estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfclutter import ocean, seeding
from rfclutter.errors import ConfigurationError
from rfclutter.ocean import pulse_modulation, surface_series, wind_doppler_spread
from rfclutter.seeding import STREAM_OCEAN, normal_pair, philox_key

WAVELENGTH = 0.03


def sea_state(wind=10.0):
    """(patch ids, wind speed), the sea's leading arguments."""
    return np.arange(6), wind


def test_zero_wind_modulation_is_identity():
    """No wind: phase exactly zero, amplitude exactly one, all pulses."""
    sea = sea_state(wind=0.0)
    phase, amp = pulse_modulation(*sea, 16, 2000.0, WAVELENGTH, seed=3)
    assert np.all(phase == 0.0)
    assert np.all(amp == 1.0)


def test_series_prefix_consistency():
    """A shorter series is a bit-exact prefix of a longer one."""
    sea = sea_state(wind=12.0)
    v8, a8 = surface_series(*sea, 8, 2000.0, seed=5)
    v16, a16 = surface_series(*sea, 16, 2000.0, seed=5)
    np.testing.assert_array_equal(v8, v16[:, :8])
    np.testing.assert_array_equal(a8, a16[:, :8])


def scalar_surface_series(ids, wind_speed, num_pulses, prf, seed):
    """`surface_series` one patch at a time from numpy's own Philox bit
    generator: pulse m takes words 2m and 2m + 1 of the patch's stream."""
    key = philox_key(seed, STREAM_OCEAN)
    rho = float(np.exp(-1.0 / (ocean.CORRELATION_TIME * prf)))
    velocity_std = ocean.VELOCITY_PER_WIND * wind_speed
    drive = velocity_std * np.sqrt(1.0 - rho * rho)
    vel, amp = [], []
    for patch_id in ids.tolist():
        words = np.random.Philox(key=key, counter=(0, patch_id, 0, 0)).random_raw(2 * num_pulses)
        xi, za = normal_pair(words[0::2], words[1::2])
        v = [velocity_std * xi[0]]
        for m in range(1, num_pulses):
            v.append(rho * v[-1] + drive * xi[m])
        vel.append(v)
        amp.append(np.exp(ocean.LOG_AMP_PER_WIND * wind_speed * za))
    return np.array(vel), np.array(amp)


@pytest.mark.parametrize("num_pulses, num_patches", [(5, 40), (64, 2500)])
def test_surface_series_matches_scalar_draws_on_every_patch(num_pulses, num_patches):
    """The vector draw against the per-patch reference; 2500 patches of
    64 pulses span two draw chunks, and an odd pulse count leaves part
    of the last Philox block unused.  The bound is exact equality."""
    ids = np.append(np.arange(num_patches - 1) * 7 + 3, 2 ** 40)
    vel, amp = surface_series(ids, 12.0, num_pulses, 2000.0, seed=11)
    want_vel, want_amp = scalar_surface_series(ids, 12.0, num_pulses, 2000.0, seed=11)
    assert vel.tobytes() == want_vel.tobytes()
    assert amp.tobytes() == want_amp.tobytes()


@pytest.mark.parametrize("num_pulses", [3, 16])
def test_surface_series_does_not_depend_on_the_worker_count(set_worker_count, monkeypatch,
                                                           num_pulses):
    """Row chunks of a few patches (a partial last chunk, with several
    Philox chunks inside a row chunk) split 1, 2, 3 and 8 ways give the
    per-patch reference's bytes."""
    ids = np.arange(53) * 5 + 1
    want_vel, want_amp = scalar_surface_series(ids, 12.0, num_pulses, 2000.0, seed=4)
    monkeypatch.setattr(ocean, "_CHUNK_BLOCKS", 24)
    monkeypatch.setattr(seeding, "PHILOX_CHUNK", 5)
    for workers in (1, 2, 3, 8):
        set_worker_count(workers)
        vel, amp = surface_series(ids, 12.0, num_pulses, 2000.0, seed=4)
        assert vel.tobytes() == want_vel.tobytes()
        assert amp.tobytes() == want_amp.tobytes()


def test_surface_series_with_no_patches():
    vel, amp = surface_series(np.zeros(0), 5.0, 4, 2000.0, seed=1)
    assert vel.shape == amp.shape == (0, 4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
def test_non_finite_rates_and_wavelengths_are_rejected(bad):
    with pytest.raises(ConfigurationError, match="prf"):
        surface_series(*sea_state(), 4, bad, seed=1)
    with pytest.raises(ConfigurationError, match="prf"):
        pulse_modulation(*sea_state(), 4, bad, WAVELENGTH, seed=1)
    with pytest.raises(ConfigurationError, match="wavelength"):
        pulse_modulation(*sea_state(), 4, 2000.0, bad, seed=1)


def test_velocity_std_scales_with_wind():
    v_lo, _ = surface_series(*sea_state(wind=5.0), 256, 2000.0, seed=2)
    v_hi, _ = surface_series(*sea_state(wind=30.0), 256, 2000.0, seed=2)
    # same seed, same draws: the series scale linearly with sigma_v
    np.testing.assert_allclose(v_hi, 6.0 * v_lo, rtol=0, atol=1e-12 * np.abs(v_hi).max())
    assert np.std(v_hi) > 3.0 * np.std(v_lo)


def test_phase_track_integrates_doppler():
    sea = sea_state(wind=10.0)
    prf = 2000.0
    phase, _ = pulse_modulation(*sea, 6, prf, WAVELENGTH, seed=7)
    vel, _ = surface_series(*sea, 6, prf, seed=7)
    dop = 2.0 * vel / WAVELENGTH
    assert np.all(phase[:, 0] == 0.0)
    want = (2.0 * np.pi / prf) * np.cumsum(dop[:, 1:], axis=1)
    np.testing.assert_allclose(phase[:, 1:], want, rtol=1e-12)


def test_modulation_deterministic():
    sea = sea_state(wind=15.0)
    a = pulse_modulation(*sea, 10, 1800.0, WAVELENGTH, seed=1)
    b = pulse_modulation(*sea, 10, 1800.0, WAVELENGTH, seed=1)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = pulse_modulation(*sea, 10, 1800.0, WAVELENGTH, seed=2)
    assert not np.array_equal(a[0], c[0])


# --- Doppler-spread estimator ----------------------------------------------------

def gaussian_ridge_map(freqs, center, width):
    profile = np.exp(-0.5 * ((freqs - center) / width) ** 2)
    return np.tile(profile[:, None], (1, 5))


def test_spread_estimator_recovers_gaussian_width():
    freqs = np.linspace(-1000.0, 1000.0, 201)
    m = gaussian_ridge_map(freqs, center=100.0, width=150.0)
    est = wind_doppler_spread(m, freqs)
    assert est == pytest.approx(150.0, rel=0.02)


@given(st.floats(1e-3, 1e3))
def test_spread_invariant_to_amplitude_scaling(k):
    freqs = np.linspace(-500.0, 500.0, 101)
    m = gaussian_ridge_map(freqs, center=-50.0, width=80.0)
    base = wind_doppler_spread(m, freqs)
    scaled = wind_doppler_spread(k * m, freqs)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_spread_validation():
    freqs = np.linspace(-10, 10, 5)
    with pytest.raises(ConfigurationError):
        wind_doppler_spread(np.zeros((4, 3)), freqs)
    with pytest.raises(ValueError):
        wind_doppler_spread(np.zeros((5, 3)), freqs)   # all-zero power
    with pytest.raises(ValueError):
        wind_doppler_spread(-np.ones((5, 3)), freqs)


def test_ocean_state_validation():
    """A negative wind speed is rejected."""
    with pytest.raises(ConfigurationError, match="wind_speed"):
        surface_series(np.arange(4), -1.0, 4, 2000.0, seed=1)
    with pytest.raises(ConfigurationError, match="wind_speed"):
        pulse_modulation(np.arange(4), -1.0, 4, 2000.0, WAVELENGTH, seed=1)
