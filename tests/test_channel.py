"""Channel synthesis: bistatic geometry, patch responses, tap accumulation."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import convolution_matrix

from rfclutter.antenna import ArrayGeometry
from rfclutter.channel import (SPEED_OF_LIGHT, ChannelImpulseResponse,
                               PatchResponse, RadarTiming, StochasticModel,
                               bistatic_delay_doppler, ensemble_second_moment,
                               patch_response, patch_responses, read_ir,
                               synthesize_ir, write_ir)
from rfclutter.errors import ConfigurationError
from rfclutter.scattering import GRASS
from rfclutter.terrain import PlatformState, ScenePatch

WAVELENGTH = 0.03


def platform(pos, vel=(0.0, 0.0, 0.0)):
    return PlatformState(position=np.asarray(pos, float),
                         velocity=np.asarray(vel, float))


def patch_at(pos, patch_id=0):
    return ScenePatch(center=np.asarray(pos, float),
                      normal=np.array([0.0, 0.0, 1.0]), area=900.0,
                      landcover_class=GRASS, patch_id=patch_id)


def rx_array(n=1):
    return ArrayGeometry.ula(n, WAVELENGTH / 2, WAVELENGTH, axis=(0, 1, 0),
                             boresight=(1, 0, 0))


# --- bistatic geometry ---------------------------------------------------------

def test_bistatic_delay_doppler_hand_example():
    """3-4-5 triangle geometry worked out by hand."""
    tx = platform((0, 0, 0), (100, 0, 0))
    rx = platform((0, 1000, 0))
    delay, doppler = bistatic_delay_doppler((3000, 4000, 0), (0, 0, 0), tx, rx,
                                            WAVELENGTH)
    r_tx = 5000.0
    r_rx = 3000.0 * math.sqrt(2.0)
    assert delay == pytest.approx((r_tx + r_rx) / SPEED_OF_LIGHT, rel=1e-15)
    # only the tx moves; u_tx = (0.6, 0.8, 0) so closing rate is 60 m/s
    assert doppler == pytest.approx(60.0 / WAVELENGTH, rel=1e-12)


def test_bistatic_doppler_with_moving_point():
    tx = platform((0, 0, 0), (100, 0, 0))
    rx = platform((0, 1000, 0))
    _, doppler = bistatic_delay_doppler((3000, 4000, 0), (0, -50, 0), tx, rx,
                                        WAVELENGTH)
    # tx leg: <(100,50,0), (0.6,0.8,0)> = 100;  rx leg: <(0,50,0), u_rx>
    u_rx = np.array([3000.0, 3000.0, 0.0]) / (3000.0 * math.sqrt(2.0))
    want = (100.0 + 50.0 * u_rx[1]) / WAVELENGTH
    assert doppler == pytest.approx(want, rel=1e-12)


def test_monostatic_degeneracy():
    """tx == rx reduces to 2R/c and 2<v, u>/lambda to 1e-12 relative."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        pos = rng.uniform(-5e3, 5e3, 3)
        pos[2] = rng.uniform(10.0, 5e3)       # platforms fly above ground
        vel = rng.uniform(-80, 80, 3)
        pt = rng.uniform(-2e4, 2e4, 3)
        tx = platform(pos, vel)
        rx = platform(pos.copy(), vel.copy())   # distinct object, equal state
        delay, doppler = bistatic_delay_doppler(pt, (0, 0, 0), tx, rx, WAVELENGTH)
        r = np.linalg.norm(pt - pos)
        u = (pt - pos) / r
        assert delay == pytest.approx(2.0 * r / SPEED_OF_LIGHT, rel=1e-12)
        assert doppler == pytest.approx(2.0 * np.dot(vel, u) / WAVELENGTH, rel=1e-12)


def test_doppler_positive_for_closing_geometry():
    tx = platform((0, 0, 0), (50, 0, 0))    # flying straight at the point
    _, doppler = bistatic_delay_doppler((1e4, 0, 0), (0, 0, 0), tx, tx, WAVELENGTH)
    assert doppler > 0
    _, receding = bistatic_delay_doppler((-1e4, 0, 0), (0, 0, 0), tx, tx, WAVELENGTH)
    assert receding < 0


def test_delay_never_below_direct_path():
    tx = platform((0, 0, 0))
    rx = platform((8000, 0, 0))
    rng = np.random.default_rng(1)
    direct = 8000.0 / SPEED_OF_LIGHT
    for _ in range(50):
        pt = rng.uniform(-2e4, 2e4, 3)
        delay, _ = bistatic_delay_doppler(pt, (0, 0, 0), tx, rx, WAVELENGTH)
        assert delay >= direct - 1e-18


# --- patch responses -----------------------------------------------------------

def test_patch_response_amplitude_and_streams():
    tx = platform((0, 0, 1000), (0, 60, 0))
    model = StochasticModel(seed=42)
    p = patch_at((4000, 0, 0), patch_id=7)
    g = 2.5e-13
    r1 = patch_response(p, g, tx, tx, WAVELENGTH, model, realization=0)
    assert abs(r1.amplitude) == pytest.approx(math.sqrt(g), rel=1e-12)
    assert r1.patch_id == 7
    # same (seed, realization, patch) -> identical draw
    r2 = patch_response(p, g, tx, tx, WAVELENGTH, model, realization=0)
    assert r1.amplitude == r2.amplitude
    # different realization -> a fresh phase
    r3 = patch_response(p, g, tx, tx, WAVELENGTH, model, realization=1)
    assert r1.amplitude != r3.amplitude
    assert abs(r3.amplitude) == pytest.approx(abs(r1.amplitude), rel=1e-12)


def test_deterministic_phase_mode():
    tx = platform((0, 0, 1000))
    model = StochasticModel(seed=0, deterministic_phase=True)
    p = patch_at((3000, 0, 0))
    r = patch_response(p, 1.0, tx, tx, WAVELENGTH, model)
    path = r.delay * SPEED_OF_LIGHT
    want = complex(np.exp(-2j * np.pi * path / WAVELENGTH))
    assert r.amplitude == pytest.approx(want, rel=1e-9)
    again = patch_response(p, 1.0, tx, tx, WAVELENGTH, model)
    assert r.amplitude == again.amplitude


def test_patch_responses_match_scalar_calls():
    """Batch form uses the same per-patch streams as isolated calls."""
    tx = platform((0, 0, 800), (0, 40, 0))
    rx = platform((500, 0, 900))
    model = StochasticModel(seed=3, doppler_std_hz=2.0)
    patches = [patch_at((3000 + 40 * k, 100 * k, 0), patch_id=k) for k in range(12)]
    gains = np.linspace(1e-14, 5e-13, 12)
    batch = patch_responses(patches, gains, tx, rx, WAVELENGTH, model, realization=5)
    for k, p in enumerate(patches):
        solo = patch_response(p, float(gains[k]), tx, rx, WAVELENGTH, model,
                              realization=5)
        assert batch[k].amplitude == solo.amplitude
        assert batch[k].doppler == solo.doppler
        assert batch[k].delay == solo.delay


# --- timing --------------------------------------------------------------------

def test_for_swath_tap_count():
    t = RadarTiming.for_swath(prf=2100.0, sample_rate=5e6, num_pulses=64,
                              swath=20e3)
    want = math.ceil(2.0 * 20e3 / SPEED_OF_LIGHT * 5e6 - 1e-9)
    assert t.num_taps == want
    # a swath that lands exactly on a sample boundary must not gain a tap
    exact = RadarTiming.for_swath(prf=1e3, sample_rate=5e6, num_pulses=1,
                                  swath=SPEED_OF_LIGHT * 10 / (2 * 5e6))
    assert exact.num_taps == 10


def test_timing_validation():
    with pytest.raises(ConfigurationError):
        RadarTiming(prf=0.0, sample_rate=5e6, num_pulses=4, num_taps=10)
    with pytest.raises(ConfigurationError):
        RadarTiming.for_swath(prf=1e3, sample_rate=5e6, num_pulses=4, swath=-5.0)



@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rates_must_be_finite(bad):
    with pytest.raises(ConfigurationError):
        RadarTiming(prf=bad, sample_rate=5e6, num_pulses=4, num_taps=10)
    with pytest.raises(ConfigurationError):
        RadarTiming(prf=1e3, sample_rate=bad, num_pulses=4, num_taps=10)
    taps = np.zeros((1, 2, 3), dtype=np.complex64)
    with pytest.raises(ConfigurationError):
        ChannelImpulseResponse(taps=taps, sample_rate=bad, prf=1e3)
    with pytest.raises(ConfigurationError):
        ChannelImpulseResponse(taps=taps, sample_rate=5e6, prf=bad)


# --- tap synthesis -------------------------------------------------------------

def single_response(tap=3, doppler=400.0, amp=0.5 + 0.1j, fs=5e6):
    delay = tap / fs
    return PatchResponse(delay=delay, doppler=doppler, amplitude=amp, patch_id=0)


def test_synthesize_ir_single_response_closed_form():
    """One scatterer: check every tap against the documented formula."""
    fs, prf, n_pulse, n_tap = 5e6, 2000.0, 8, 16
    timing = RadarTiming(prf=prf, sample_rate=fs, num_pulses=n_pulse, num_taps=n_tap)
    arr = rx_array(2)
    resp = single_response(tap=5, doppler=300.0, amp=0.25 - 0.4j, fs=fs)
    d = np.array([[0.0, 1.0, 0.0]])            # straight along the array axis
    ir = synthesize_ir([resp], d, arr, timing)

    assert ir.taps.shape == (2, n_pulse, n_tap)
    s = np.exp(1j * 2.0 * np.pi * 0.5 * np.arange(2) * 1.0)  # d/lambda = 0.5, u = 1
    m = np.arange(n_pulse)
    ramp = np.exp(2j * np.pi * 300.0 * m / prf)
    for n in range(2):
        want = resp.amplitude * s[n] * ramp
        got = ir.taps[n, :, 5].astype(np.complex128)
        np.testing.assert_allclose(got, want.astype(np.complex64).astype(complex),
                                   rtol=2e-6)
    # all other taps stay exactly zero
    mask = np.ones(n_tap, dtype=bool)
    mask[5] = False
    assert np.all(ir.taps[:, :, mask] == 0)


def test_synthesize_ir_disjoint_linearity():
    """IR of a disjoint union is the exact tap-wise sum of the parts."""
    fs = 5e6
    timing = RadarTiming(prf=1500.0, sample_rate=fs, num_pulses=4, num_taps=32)
    arr = rx_array(3)
    rng = np.random.default_rng(8)
    resp_a, resp_b, dirs_a, dirs_b = [], [], [], []
    for k in range(6):
        resp_a.append(PatchResponse(delay=(2 * k) / fs, doppler=rng.uniform(-500, 500),
                                    amplitude=complex(rng.normal(), rng.normal()),
                                    patch_id=k))
        resp_b.append(PatchResponse(delay=(2 * k + 1) / fs, doppler=rng.uniform(-500, 500),
                                    amplitude=complex(rng.normal(), rng.normal()),
                                    patch_id=100 + k))
        u = rng.uniform(-0.7, 0.7, 2)
        dirs_a.append([math.sqrt(1 - u[0] ** 2), u[0], 0.0])
        dirs_b.append([math.sqrt(1 - u[1] ** 2), u[1], 0.0])
    ir_a = synthesize_ir(resp_a, np.array(dirs_a), arr, timing)
    ir_b = synthesize_ir(resp_b, np.array(dirs_b), arr, timing)
    both = synthesize_ir(resp_a + resp_b, np.array(dirs_a + dirs_b), arr, timing)
    np.testing.assert_array_equal(both.taps, ir_a.taps + ir_b.taps)


def test_zero_amplitude_responses_leave_ir_bit_identical():
    fs = 5e6
    timing = RadarTiming(prf=1500.0, sample_rate=fs, num_pulses=4, num_taps=16)
    arr = rx_array(2)
    live = [single_response(tap=2, amp=1.0 + 0j),
            single_response(tap=9, amp=0.3 - 0.2j)]
    live[1] = PatchResponse(delay=live[1].delay, doppler=live[1].doppler,
                            amplitude=live[1].amplitude, patch_id=5)
    dirs = np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0]])
    base = synthesize_ir(live, dirs, arr, timing)

    shadowed = PatchResponse(delay=4 / fs, doppler=123.0, amplitude=0.0, patch_id=3)
    with_shadow = synthesize_ir([live[0], shadowed, live[1]],
                                np.array([dirs[0], [0.0, 1.0, 0.0], dirs[1]]),
                                arr, timing)
    np.testing.assert_array_equal(base.taps, with_shadow.taps)


def test_out_of_window_responses_dropped_with_warning(caplog):
    fs = 5e6
    timing = RadarTiming(prf=1500.0, sample_rate=fs, num_pulses=2, num_taps=8)
    arr = rx_array(1)
    inside = single_response(tap=3)
    outside = single_response(tap=20)
    early = PatchResponse(delay=0.0, doppler=0.0, amplitude=1.0, patch_id=2)
    with caplog.at_level(logging.WARNING, logger="rfclutter.channel"):
        ir = synthesize_ir([inside, outside, early],
                           np.array([[1, 0, 0], [1, 0, 0], [1, 0, 0]], float),
                           arr, timing, delay_origin=1 / fs)
    # with the shifted origin: inside -> tap 2 (kept), early -> tap -1 and
    # outside -> tap 19 (both dropped and counted)
    assert "2 patch responses" in caplog.text
    assert ir.taps.shape == (1, 2, 8)
    assert np.any(ir.taps[:, :, 2] != 0)


def test_ir_bit_reproducible_across_runs():
    tx = platform((0, 0, 900), (0, 50, 0))
    timing = RadarTiming(prf=2000.0, sample_rate=5e6, num_pulses=8, num_taps=64)
    arr = rx_array(2)
    model = StochasticModel(seed=77, doppler_std_hz=1.5)
    patches = [patch_at((2500 + 30 * k, 60 * k, 0), patch_id=k) for k in range(25)]
    gains = np.full(25, 1e-13)

    def run():
        resp = patch_responses(patches, gains, tx, tx, WAVELENGTH, model,
                               realization=2)
        centers = np.array([p.center for p in patches])
        d = centers - tx.position
        d /= np.linalg.norm(d, axis=1)[:, None]
        return synthesize_ir(resp, d, arr, timing)

    a, b = run(), run()
    np.testing.assert_array_equal(a.taps, b.taps)


# --- moments ----------------------------------------------------------------------

def test_ensemble_moment_matches_convolution_matrix_oracle():
    """A deterministic one-realization ensemble is literally H^H H."""
    rng = np.random.default_rng(12)
    taps = rng.normal(size=10) + 1j * rng.normal(size=10)
    p = 6
    moment = ensemble_second_moment(lambda k: taps, p, num_realizations=1)
    h = convolution_matrix(taps, p)
    want = h.conj().T @ h
    np.testing.assert_allclose(moment, 0.5 * (want + want.conj().T), rtol=1e-12)
    # Hermitian by construction
    np.testing.assert_allclose(moment, moment.conj().T, atol=0)


def test_ensemble_moment_single_tap_statistics():
    """One CN(0, sigma^2) tap: E{H^H H} -> sigma^2 I as K grows."""
    sigma2 = 4.0
    rng = np.random.default_rng(99)
    draws = (rng.normal(size=4000) + 1j * rng.normal(size=4000)) * math.sqrt(sigma2 / 2)

    moment = ensemble_second_moment(lambda k: draws[k: k + 1], 4,
                                    num_realizations=4000)
    np.testing.assert_allclose(moment, sigma2 * np.eye(4), atol=0.15)


def test_ensemble_moment_psd():
    rng = np.random.default_rng(3)

    def realize(k):
        r = np.random.default_rng(k)
        return r.normal(size=7) + 1j * r.normal(size=7)

    moment = ensemble_second_moment(realize, 5, num_realizations=16)
    eigs = np.linalg.eigvalsh(moment)
    assert eigs.min() >= -1e-10 * np.trace(moment).real


# --- file format -------------------------------------------------------------------

def test_ir_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    taps = (rng.normal(size=(2, 4, 16)) + 1j * rng.normal(size=(2, 4, 16)))
    ir = ChannelImpulseResponse(taps=taps, sample_rate=5e6, prf=1800.0,
                                delay_origin=3.2e-5, kind="clutter")
    path = tmp_path / "ch.rfgir"
    write_ir(path, ir)
    back = read_ir(path)
    np.testing.assert_array_equal(back.taps, ir.taps)   # complex64 native: exact
    assert back.sample_rate == ir.sample_rate
    assert back.prf == ir.prf
    assert back.delay_origin == ir.delay_origin


def test_ir_reader_rejects_corruption(tmp_path):
    path = tmp_path / "bad.rfgir"
    path.write_bytes(b"RFGIRBAD" + b"\x00" * 40)
    with pytest.raises(ConfigurationError):
        read_ir(path)
    ir = ChannelImpulseResponse(taps=np.ones((1, 2, 4), dtype=np.complex64),
                                sample_rate=5e6, prf=1e3)
    good = tmp_path / "good.rfgir"
    write_ir(good, ir)
    data = good.read_bytes()
    good.write_bytes(data[:-3])
    with pytest.raises(ConfigurationError):
        read_ir(good)
