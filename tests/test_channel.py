"""Channel synthesis: bistatic geometry, patch responses, tap accumulation."""

import dataclasses
import hashlib
import logging
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import convolution_matrix

from rfclutter import channel, pipeline
from rfclutter.antenna import ArrayGeometry
from rfclutter.channel import (SPEED_OF_LIGHT, ChannelImpulseResponse,
                               RadarTiming, StochasticModel, bistatic_delays_dopplers,
                               ensemble_second_moment, patch_responses, read_ir,
                               scatterer_responses, synthesize_ir, write_ir)
from rfclutter.errors import ConfigurationError
from rfclutter.scattering import GRASS
from rfclutter.scenario import DESK_SCALE, generate_scenario1, generate_scenario2
from rfclutter.terrain import PatchArrays, PlatformState

from oracles import bistatic_delay_doppler, patch_response

WAVELENGTH = 0.03


def platform(pos, vel=(0.0, 0.0, 0.0)):
    return PlatformState(position=np.asarray(pos, float),
                         velocity=np.asarray(vel, float))


def flat_patches(centers):
    """Level 900 m^2 grass patches at `centers`, ids 0, 1, ..."""
    centers = np.asarray(centers, float).reshape(-1, 3)
    n = len(centers)
    normals = np.zeros((n, 3))
    normals[:, 2] = 1.0
    return PatchArrays(centers=centers, normals=normals, areas=np.full(n, 900.0),
                       classes=np.full(n, GRASS), ids=np.arange(n))


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


@pytest.mark.parametrize("monostatic", [False, True])
def test_array_delay_doppler_matches_scalar_for_moving_points(monostatic):
    """The array form against the scalar one for moving points and
    moving platforms; the bound is exact equality."""
    rng = np.random.default_rng(21)
    tx = platform(rng.uniform(-3e3, 3e3, 3) + [0, 0, 4e3], rng.uniform(-90, 90, 3))
    rx = tx if monostatic else platform(rng.uniform(-3e3, 3e3, 3) + [0, 0, 2e3],
                                        rng.uniform(-40, 40, 3))
    points = rng.uniform(-2e4, 2e4, (2000, 3))
    velocities = rng.uniform(-60, 60, (2000, 3))
    delays, dopplers = bistatic_delays_dopplers(points, velocities, tx, rx, WAVELENGTH)
    want = [bistatic_delay_doppler(p, v, tx, rx, WAVELENGTH)
            for p, v in zip(points, velocities)]
    assert delays.tolist() == [d for d, _ in want]
    assert dopplers.tolist() == [f for _, f in want]
    with pytest.raises(ConfigurationError):
        bistatic_delays_dopplers(np.vstack([points[:3], rx.position]), velocities[:4],
                                 tx, rx, WAVELENGTH)


# --- patch responses -----------------------------------------------------------

def test_patch_response_amplitude_and_streams():
    tx = platform((0, 0, 1000), (0, 60, 0))
    model = StochasticModel(seed=42)
    center = (4000.0, 0.0, 0.0)
    g = 2.5e-13
    _, _, a1 = patch_response(center, 7, g, tx, tx, WAVELENGTH, model, realization=0)
    assert abs(a1) == pytest.approx(math.sqrt(g), rel=1e-12)
    # same (seed, realization, patch) -> identical draw
    _, _, a2 = patch_response(center, 7, g, tx, tx, WAVELENGTH, model, realization=0)
    assert a1 == a2
    # different realization or patch id -> a fresh phase
    _, _, a3 = patch_response(center, 7, g, tx, tx, WAVELENGTH, model, realization=1)
    assert a1 != a3
    assert abs(a3) == pytest.approx(abs(a1), rel=1e-12)
    _, _, a4 = patch_response(center, 8, g, tx, tx, WAVELENGTH, model, realization=0)
    assert a1 != a4


def test_deterministic_phase_mode():
    tx = platform((0, 0, 1000))
    model = StochasticModel(seed=0, deterministic_phase=True)
    center = (3000.0, 0.0, 0.0)
    delay, _, amp = patch_response(center, 0, 1.0, tx, tx, WAVELENGTH, model)
    path = delay * SPEED_OF_LIGHT
    want = complex(np.exp(-2j * np.pi * path / WAVELENGTH))
    assert amp == pytest.approx(want, rel=1e-9)
    _, _, again = patch_response(center, 0, 1.0, tx, tx, WAVELENGTH, model)
    assert amp == again


def assert_responses_match_scalar(patches, gains, tx, rx, wavelength, model, realization):
    batch = patch_responses(patches, gains, tx, rx, wavelength, model, realization)
    assert len(batch) == len(patches)
    assert batch.patch_id.tolist() == patches.ids.tolist()
    want = [patch_response(c, i, g, tx, rx, wavelength, model, realization)
            for c, i, g in zip(patches.centers, patches.ids.tolist(), gains.tolist())]
    assert batch.delay.tolist() == [d for d, _, _ in want]
    assert batch.doppler.tolist() == [f for _, f, _ in want]
    assert batch.amplitude.tolist() == [a for _, _, a in want]


MODELS = {
    "jitter": dict(doppler_std_hz=2.0),
    "deterministic": dict(deterministic_phase=True),
    "deterministic-jitter": dict(deterministic_phase=True, doppler_std_hz=2.0),
}


def test_patch_responses_match_scalar_calls():
    """Batch form uses the same per-patch streams as isolated calls."""
    tx = platform((0, 0, 800), (0, 40, 0))
    rx = platform((500, 0, 900), (3, -2, 0))
    patches = flat_patches([(3000 + 40 * k, 100 * k, 0) for k in range(12)])
    gains = np.linspace(0.0, 5e-13, 12)
    for model in MODELS.values():
        assert_responses_match_scalar(patches, gains, tx, rx, WAVELENGTH,
                                      StochasticModel(seed=3, **model), realization=5)


@pytest.mark.parametrize("model", ["jitter", "deterministic"])
@pytest.mark.parametrize("make", [lambda: generate_scenario1(scale=DESK_SCALE, seed=1),
                                  lambda: generate_scenario2(scale=0.25, seed=1)],
                         ids=["scenario1-desk", "scenario2-quarter"])
def test_patch_responses_match_scalar_calls_on_every_scatterer(make, model):
    """The array path against the scalar reference over every scatterer
    of a preset at CPI 1, with the CPI's link-budget gains (zeros
    included); the bound is exact equality."""
    scn = make()
    scene = pipeline.build_scene(scn)
    tx, rx = pipeline.platform_states(scn, 1)
    gains = pipeline.patch_budget(scn, scene, tx, rx, pipeline.receive_array(scn)).gains
    assert 0 < np.count_nonzero(gains) < len(gains)
    assert_responses_match_scalar(scene.patches, gains, tx, rx, scn.wavelength,
                                  StochasticModel(seed=scn.seed, **MODELS[model]),
                                  realization=1)


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_delay_origin_must_be_finite_and_non_negative(bad):
    with pytest.raises(ConfigurationError):
        RadarTiming(prf=1e3, sample_rate=5e6, num_pulses=4, num_taps=10, delay_origin=bad)
    with pytest.raises(ConfigurationError):
        RadarTiming.for_swath(prf=1e3, sample_rate=5e6, num_pulses=4, swath=300.0,
                              delay_origin=bad)
    with pytest.raises(ConfigurationError):
        ChannelImpulseResponse(taps=np.zeros((1, 2, 3), dtype=np.complex64),
                               sample_rate=5e6, prf=1e3, delay_origin=bad)


def write_ir_with_delay_origin(path, delay_origin):
    """An IR file whose header's delay origin (offset 28) is edited."""
    write_ir(path, ChannelImpulseResponse(taps=np.ones((1, 2, 4), dtype=np.complex64),
                                          sample_rate=5e6, prf=1e3, delay_origin=1e-5))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, 28, delay_origin)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("bad", [float("nan"), -1.0])
def test_ir_reader_rejects_a_bad_delay_origin(tmp_path, bad):
    path = tmp_path / "edited.rfgir"
    write_ir_with_delay_origin(path, bad)
    with pytest.raises(ConfigurationError, match="delay_origin"):
        read_ir(path)


# --- tap synthesis -------------------------------------------------------------

def responses(*rows):
    """A response table from (delay, doppler, amplitude, patch_id) rows."""
    return scatterer_responses(*(list(col) for col in zip(*rows)))


def test_synthesize_ir_single_response_closed_form():
    """One scatterer: check every tap against the documented formula."""
    fs, prf, n_pulse, n_tap = 5e6, 2000.0, 8, 16
    timing = RadarTiming(prf=prf, sample_rate=fs, num_pulses=n_pulse, num_taps=n_tap)
    arr = rx_array(2)
    amp = 0.25 - 0.4j
    d = np.array([[0.0, 1.0, 0.0]])            # straight along the array axis
    ir = synthesize_ir(responses((5 / fs, 300.0, amp, 0)), d, arr, timing)

    assert ir.taps.shape == (2, n_pulse, 1) and ir.num_taps == n_tap
    assert ir.support.tolist() == [5]
    s = np.exp(1j * 2.0 * np.pi * 0.5 * np.arange(2) * 1.0)  # d/lambda = 0.5, u = 1
    m = np.arange(n_pulse)
    ramp = np.exp(2j * np.pi * 300.0 * m / prf)
    for n in range(2):
        want = amp * s[n] * ramp
        got = ir.taps[n, :, 0].astype(np.complex128)
        np.testing.assert_allclose(got, want.astype(np.complex64).astype(complex),
                                   rtol=2e-6)
    # all other taps stay exactly zero
    dense = ir.dense()
    mask = np.ones(n_tap, dtype=bool)
    mask[5] = False
    assert np.all(dense[:, :, mask] == 0)


def test_synthesize_ir_disjoint_linearity():
    """IR of a disjoint union is the exact tap-wise sum of the parts."""
    fs = 5e6
    timing = RadarTiming(prf=1500.0, sample_rate=fs, num_pulses=4, num_taps=32)
    arr = rx_array(3)
    rng = np.random.default_rng(8)
    rows_a, rows_b, dirs_a, dirs_b = [], [], [], []
    for k in range(6):
        rows_a.append(((2 * k) / fs, rng.uniform(-500, 500),
                       complex(rng.normal(), rng.normal()), k))
        rows_b.append(((2 * k + 1) / fs, rng.uniform(-500, 500),
                       complex(rng.normal(), rng.normal()), 100 + k))
        u = rng.uniform(-0.7, 0.7, 2)
        dirs_a.append([math.sqrt(1 - u[0] ** 2), u[0], 0.0])
        dirs_b.append([math.sqrt(1 - u[1] ** 2), u[1], 0.0])
    ir_a = synthesize_ir(responses(*rows_a), np.array(dirs_a), arr, timing)
    ir_b = synthesize_ir(responses(*rows_b), np.array(dirs_b), arr, timing)
    both = synthesize_ir(responses(*rows_a, *rows_b), np.array(dirs_a + dirs_b), arr, timing)
    np.testing.assert_array_equal(both.dense(), ir_a.dense() + ir_b.dense())


def test_zero_amplitude_responses_leave_ir_bit_identical():
    fs = 5e6
    timing = RadarTiming(prf=1500.0, sample_rate=fs, num_pulses=4, num_taps=16)
    arr = rx_array(2)
    live = [(2 / fs, 400.0, 1.0 + 0j, 0), (9 / fs, 400.0, 0.3 - 0.2j, 5)]
    dirs = np.array([[1.0, 0.0, 0.0], [0.8, 0.6, 0.0]])
    base = synthesize_ir(responses(*live), dirs, arr, timing)

    shadowed = (4 / fs, 123.0, 0.0, 3)
    with_shadow = synthesize_ir(responses(live[0], shadowed, live[1]),
                                np.array([dirs[0], [0.0, 1.0, 0.0], dirs[1]]),
                                arr, timing)
    np.testing.assert_array_equal(base.taps, with_shadow.taps)


def test_out_of_window_responses_dropped_with_warning(caplog):
    fs = 5e6
    timing = RadarTiming(prf=1500.0, sample_rate=fs, num_pulses=2, num_taps=8,
                         delay_origin=1 / fs)
    arr = rx_array(1)
    inside = (3 / fs, 400.0, 0.5 + 0.1j, 0)
    outside = (20 / fs, 400.0, 0.5 + 0.1j, 0)
    early = (0.0, 0.0, 1.0, 2)
    with caplog.at_level(logging.WARNING, logger="rfclutter.channel"):
        ir = synthesize_ir(responses(inside, outside, early),
                           np.array([[1, 0, 0], [1, 0, 0], [1, 0, 0]], float),
                           arr, timing)
    # with the shifted origin: inside -> tap 2 (kept), early -> tap -1 and
    # outside -> tap 19 (both dropped and counted)
    assert "2 patch responses" in caplog.text
    assert ir.taps.shape == (1, 2, 1) and ir.num_taps == 8
    assert ir.support.tolist() == [2]
    assert np.any(ir.taps != 0)


def test_ir_bit_reproducible_across_runs():
    tx = platform((0, 0, 900), (0, 50, 0))
    timing = RadarTiming(prf=2000.0, sample_rate=5e6, num_pulses=8, num_taps=64)
    arr = rx_array(2)
    model = StochasticModel(seed=77, doppler_std_hz=1.5)
    patches = flat_patches([(2500 + 30 * k, 60 * k, 0) for k in range(25)])
    gains = np.full(25, 1e-13)

    def run():
        resp = patch_responses(patches, gains, tx, tx, WAVELENGTH, model,
                               realization=2)
        d = patches.centers - tx.position
        d /= np.linalg.norm(d, axis=1)[:, None]
        return synthesize_ir(resp, d, arr, timing)

    a, b = run(), run()
    np.testing.assert_array_equal(a.taps, b.taps)


# --- tap accumulation against the scatter-add reference -----------------------

def direct_steering(array, directions):
    """Spatial steering by one np.exp per (direction, element) entry of
    the phases 2 pi / lambda <p_m - p_0, d>, independent of
    `phase_ramps`."""
    rel = array.element_positions - array.element_positions[0]
    return np.exp(1j * (2.0 * np.pi / array.wavelength) * (directions @ rel.T))


def add_at_taps(responses, directions, array, timing, pulse_phase=None, pulse_amp=None):
    """The scatter-add accumulation `synthesize_ir` replaced, as its
    reference: each live in-window response's (N, M) contribution is
    added into its tap with np.add.at, in ascending patch_id order, in
    complex128, then cast to complex64.  Both phase factors are direct
    np.exp calls per entry, and `pulse_phase` / `pulse_amp` cover every
    response."""
    order = np.argsort(responses.patch_id, kind="stable")
    idx = order[responses.amplitude[order] != 0]
    tap = np.round((responses.delay[idx] - timing.delay_origin)
                   * timing.sample_rate).astype(np.int64)
    inside = (tap >= 0) & (tap < timing.num_taps)
    idx, tap = idx[inside], tap[inside]
    out = np.zeros((timing.num_taps, array.num_elements, timing.num_pulses), complex)
    m = np.arange(timing.num_pulses)
    for blk in np.array_split(np.arange(idx.size), max(1, idx.size // 512)):
        i = idx[blk]
        slow = np.exp((2j * np.pi / timing.prf) * np.outer(responses.doppler[i], m))
        if pulse_phase is not None:
            slow = slow * np.exp(1j * pulse_phase[i])
        if pulse_amp is not None:
            slow = slow * pulse_amp[i]
        steer = direct_steering(array, directions[i])
        np.add.at(out, tap[blk], (responses.amplitude[i, None, None] * steer[:, :, None]
                                  * slow[:, None, :]))
    return out.transpose(1, 2, 0).astype(np.complex64)


def ulp_distance(a, b):
    """Word-by-word distance of two complex64 arrays in float32 units in
    the last place (+0 and -0 are one value)."""
    def ordered(x):
        i = np.ascontiguousarray(x).view(np.float32).view(np.int32).astype(np.int64)
        return np.where(i < 0, -(i & 0x7FFFFFFF), i)
    return np.abs(ordered(a) - ordered(b))


@pytest.mark.parametrize("make", [
    lambda: generate_scenario1(scale=DESK_SCALE, seed=1),
    lambda: dataclasses.replace(generate_scenario2(scale=0.25, seed=1), wind_speed_mps=12.0,
                                clutter_doppler_std_hz=2.0)],
    ids=["scenario1-desk", "scenario2-quarter-wind"])
def test_synthesize_ir_within_one_ulp_of_scatter_add(make, monkeypatch):
    """The per-tap GEMM against the np.add.at reference on the clutter
    of a preset CPI.  Both sum in float64 and differ only in order, so
    after the cast to complex64 every word is within 1 ulp."""
    scn = make()
    calls = []

    def capture(*args, **kw):
        calls.append((args, kw))
        return synthesize_ir(*args, **kw)

    monkeypatch.setattr(pipeline, "synthesize_ir", capture)
    ir = pipeline.synthesize_clutter(scn, pipeline.build_scene(scn), 1)
    ((resp, directions, array, timing), kw), = calls
    phase = amp = None
    if scn.wind_speed_mps > 0:
        assert kw["modulation"] is not None
        rows, mod_phase, mod_amp = kw["modulation"]
        phase = np.zeros((len(resp), timing.num_pulses))
        amp = np.ones((len(resp), timing.num_pulses))
        phase[rows] = mod_phase
        amp[rows] = mod_amp
    want = add_at_taps(resp, directions, array, timing, phase, amp)
    live = resp.amplitude != 0
    tap = np.round((resp.delay[live] - timing.delay_origin) * timing.sample_rate)
    assert np.unique(tap, return_counts=True)[1].max() > 1   # real sums, not copies
    assert np.count_nonzero(want) > 0
    assert ulp_distance(ir.dense(), want).max() <= 1


def many_tap_responses(count=600, num_taps=48, seed=3):
    """`count` responses over `num_taps` taps, several per tap, with
    directions, a few shadowed rows and sea modulation on every third
    row, for a (3 element, 8 pulse) array."""
    rng = np.random.default_rng(seed)
    fs = 5e6
    timing = RadarTiming(prf=1500.0, sample_rate=fs, num_pulses=8, num_taps=num_taps)
    amps = rng.normal(size=count) + 1j * rng.normal(size=count)
    amps[::17] = 0.0
    resp = scatterer_responses(rng.integers(0, num_taps, count) / fs,
                               rng.uniform(-600.0, 600.0, count), amps,
                               rng.permutation(count) * 3)
    u = rng.uniform(-0.8, 0.8, count)
    directions = np.stack([np.sqrt(1.0 - u * u), u, np.zeros(count)], axis=1)
    rows = np.arange(0, count, 3)
    modulation = (rows, rng.uniform(-np.pi, np.pi, (rows.size, 8)),
                  rng.lognormal(0.0, 0.2, (rows.size, 8)))
    return resp, directions, rx_array(3), timing, modulation


@pytest.mark.parametrize("modulated", [False, True], ids=["static", "sea"])
def test_synthesize_ir_does_not_depend_on_the_worker_count(set_worker_count, monkeypatch,
                                                           modulated):
    """Batches of about 40 responses (more than 8 of them) split 1, 2,
    3 and 8 ways give the bytes of one default-size batch on one
    worker."""
    resp, directions, array, timing, modulation = many_tap_responses()
    if not modulated:
        modulation = None
    set_worker_count(1)
    want = synthesize_ir(resp, directions, array, timing, modulation=modulation).taps
    assert np.count_nonzero(want) > 0
    monkeypatch.setattr(channel, "_TAP_BATCH", 40)
    for workers in (1, 2, 3, 8):
        set_worker_count(workers)
        got = synthesize_ir(resp, directions, array, timing, modulation=modulation).taps
        assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("realizations", [1, 16])
@pytest.mark.parametrize("num_taps", [3, 6, 40], ids=["L<p", "L=p", "L>p"])
def test_ensemble_moment_lag_sums_match_convolution_matrices(num_taps, realizations):
    """The lag-sum Toeplitz moment against the mean of H^H H over the
    realizations' full convolution matrices, at p = 6.  Each entry of
    either side is a sum of at most n = L + p - 1 products, within
    (n + 2) eps sum|h_i||h_j| <= (n + 2) eps ||h||^2 of the exact value
    (Cauchy-Schwarz), and the mean over R realizations adds R eps
    mean ||h||^2; the two sides so differ by at most
    2 (n + 2 + R) eps mean ||h||^2."""
    p = 6
    rng = np.random.default_rng(num_taps * 100 + realizations)
    draws = (rng.normal(size=(realizations, num_taps))
             + 1j * rng.normal(size=(realizations, num_taps))) * rng.uniform(0.1, 10.0)
    moment = ensemble_second_moment(lambda k: draws[k], p, num_realizations=realizations)
    want = sum(convolution_matrix(h, p).conj().T @ convolution_matrix(h, p)
               for h in draws) / realizations
    n = num_taps + p - 1
    bound = 2 * (n + 2 + realizations) * np.finfo(float).eps * np.mean(
        np.sum(np.abs(draws) ** 2, axis=1))
    assert np.abs(moment - want).max() <= bound
    # Hermitian with a real diagonal by construction
    np.testing.assert_array_equal(moment, moment.conj().T)
    assert moment.shape == (p, p) and np.all(np.diag(moment).imag == 0)


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
    taps[:, :, [0, 3, 4, 9, 15]] = 0.0
    taps[0, 1, 3] = -0.0 + 0.5j       # zero in all but one (channel, pulse)
    ir = ChannelImpulseResponse.from_dense(taps, sample_rate=5e6, prf=1800.0,
                                           delay_origin=3.2e-5)
    assert ir.support.tolist() == [1, 2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14]
    path = tmp_path / "ch.rfgir"
    digest = write_ir(path, ir)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert path.stat().st_size == 48 + 4 * 12 + 8 * 2 * 4 * 12
    back = read_ir(path)
    # complex64 native, the support as written: exact
    assert back.support.tobytes() == ir.support.tobytes()
    assert back.taps.tobytes() == ir.taps.tobytes()
    assert back.num_taps == 16
    assert back.dense().tobytes() == taps.astype(np.complex64).tobytes()
    assert back.sample_rate == ir.sample_rate
    assert back.prf == ir.prf
    assert back.delay_origin == ir.delay_origin


@pytest.mark.parametrize("support", [[], [0], [0, 15], [2, 3, 7]])
def test_write_ir_read_ir_keep_the_support_and_taps_bit_for_bit(tmp_path, support):
    """Any support, the empty one of an all-shadowed channel included,
    reads back as written, with signed zeros in the taps kept."""
    rng = np.random.default_rng(len(support))
    k = len(support)
    taps = (rng.normal(size=(3, 2, k)) + 1j * rng.normal(size=(3, 2, k))).astype(np.complex64)
    if k:
        taps[1, 0, 0] = complex(-0.0, 0.25)
    ir = ChannelImpulseResponse(taps=taps, sample_rate=5e6, prf=1e3, support=support,
                                num_taps=16)
    path = tmp_path / "ch.rfgir"
    write_ir(path, ir)
    back = read_ir(path)
    assert back.support.tolist() == support and back.num_taps == 16
    assert back.taps.shape == (3, 2, k)
    assert back.taps.tobytes() == ir.taps.tobytes()


@pytest.mark.parametrize("support, num_taps", [
    ([3, 1], 8), ([1, 1], 8), ([-1, 2], 8), ([2, 8], 8), ([0, 1, 2], 2)])
def test_a_bad_support_is_rejected(support, num_taps):
    taps = np.ones((1, 2, len(support)), dtype=np.complex64)
    with pytest.raises(ConfigurationError, match="support"):
        ChannelImpulseResponse(taps=taps, sample_rate=5e6, prf=1e3, support=support,
                               num_taps=num_taps)
    with pytest.raises(ConfigurationError, match="support"):
        ChannelImpulseResponse(taps=taps[:, :, :1], sample_rate=5e6, prf=1e3,
                               support=support, num_taps=num_taps)


def test_dense_and_from_dense_invert_each_other():
    rng = np.random.default_rng(5)
    taps = np.zeros((2, 3, 12), dtype=np.complex64)
    taps[:, :, [1, 4, 11]] = rng.normal(size=(2, 3, 3))
    taps[1, 2, 6] = 1j
    ir = ChannelImpulseResponse.from_dense(taps, sample_rate=5e6, prf=1e3)
    assert ir.support.tolist() == [1, 4, 6, 11] and ir.num_taps == 12
    assert ir.dense().tobytes() == taps.tobytes()
    empty = ChannelImpulseResponse.from_dense(np.zeros((2, 3, 12)), sample_rate=5e6, prf=1e3)
    assert empty.taps.shape == (2, 3, 0) and empty.num_taps == 12
    assert not empty.dense().any()


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
