"""End-to-end acceptance checks.

Each test exercises one system-level guarantee at its stated tolerance
and prints a single PASS line when it holds.  These are deliberately
redundant with the unit suites: they pin the externally promised
behavior of the assembled system, not the internals.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import j0

from rfclutter import pipeline, terrain
from rfclutter.antenna import ArrayGeometry
from rfclutter.challenge import export_challenge, read_challenge
from rfclutter.channel import (ChannelImpulseResponse, ensemble_second_moment,
                               read_ir)
from rfclutter.cli import main as cli_main
from rfclutter.cofar import (ChannelMoments, generalized_eigenvalues,
                             max_gain_db, optimal_waveform, scnr)
from rfclutter.dsp import (LEAKAGE_FLOOR_DB, cross_channel_leakage, doppler_axis,
                          doppler_process, pulse_compress, range_doppler_map)
from rfclutter.ocean import wind_doppler_spread
from rfclutter.pipeline import CPIResult, ScenarioRun, simulate_scenario
from rfclutter.rxsim import assemble_cube, simulate_cube
from rfclutter.scenario import (DESK_SCALE, Scenario, TargetSpec,
                                generate_scenario1, parse_scenario)
from rfclutter.scattering import GRASS, WATER
from rfclutter.seeding import derive_rng
from rfclutter.terrain import ClassGrid, ElevationGrid, build_patch_grid, lines_of_sight
from rfclutter.waveform import Waveform, lfm, phase_code

from oracles import (clutter_covariance, convolve_pulse, draw_snapshots, line_of_sight,
                     sample_covariance, space_time_steering, spatial_steering,
                     temporal_steering)

C = 299792458.0


def flat_scene_scenario(**overrides):
    base = dict(
        name="accept",
        carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2000.0,
        num_pulses=16, num_channels=2, num_cpis=1,
        pulse_duration_s=1e-6, noise_power=0.0, swath_m=1200.0,
        tx_position=np.array([100.0, 600.0, 300.0]),
        tx_velocity=np.array([0.0, 25.0, 0.0]),
        dem=ElevationGrid(heights=np.zeros((40, 40)), cell_size=30.0),
        patch_size_m=60.0,
        clutter_doppler_std_hz=2.0,
        targets=[TargetSpec(position=[900.0, 600.0, 0.0],
                            velocity=[10.0, 0.0, 0.0], rcs=100.0)],
    )
    base.update(overrides)
    return Scenario(**base)


def test_01_single_scatterer_end_to_end():
    """A lone mover lands on its computed range and Doppler bins."""
    t0 = time.monotonic()
    pos = np.array([3000.0, 0.0, 0.0])
    platform = np.array([0.0, 0.0, 1000.0])
    r = float(np.linalg.norm(pos - platform))
    u = (pos - platform) / r
    closing = 8.0                      # m/s along the line of sight
    scn = Scenario(
        name="single", carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2100.0,
        num_pulses=64, num_channels=4, num_cpis=1,
        pulse_duration_s=2.6e-6, noise_power=0.0, swath_m=9000.0,
        tx_position=platform, tx_velocity=np.zeros(3),
        targets=[TargetSpec(position=pos, velocity=-closing * u, rcs=25.0)],
    )
    run = simulate_scenario(scn)
    map_db, peaks = range_doppler_map(run.results[0].cube, run.waveform,
                                      np.ones(scn.num_channels))
    elapsed = time.monotonic() - t0

    fs = scn.sample_rate
    want_range = round(2.0 * r / C * fs)
    want_dopp = round(scn.num_pulses * (2.0 * closing / scn.wavelength) / scn.prf_hz)
    assert peaks, "no detection from a noiseless point target"
    r_bin, d_bin, _ = peaks[0]
    assert abs(r_bin - want_range) <= 1
    d_err = min(abs(d_bin - want_dopp), scn.num_pulses - abs(d_bin - want_dopp))
    assert d_err <= 1
    assert elapsed < 10.0
    print(f"ACCEPTANCE 01: PASS - peak at ({r_bin}, {d_bin}) vs computed "
          f"({want_range}, {want_dopp}), {elapsed:.2f} s")


def test_02_explicit_colocated_receiver_degenerates():
    """tx == rx configured explicitly reproduces the one-platform run."""
    mono = flat_scene_scenario()
    bist = flat_scene_scenario(rx_position=mono.tx_position.copy(),
                               rx_velocity=mono.tx_velocity.copy())
    scene_m = pipeline.build_scene(mono)
    scene_b = pipeline.build_scene(bist)
    timing = mono.timing()
    worst = 0.0
    for a, b in [
        (pipeline.synthesize_clutter(mono, scene_m, 0, timing),
         pipeline.synthesize_clutter(bist, scene_b, 0, timing)),
        (pipeline.synthesize_targets(mono, scene_m, 0, timing),
         pipeline.synthesize_targets(bist, scene_b, 0, timing)),
    ]:
        scale = float(np.abs(a.taps).max())
        assert a.taps.shape == b.taps.shape
        diff = float(np.abs(a.taps.astype(np.complex128)
                            - b.taps.astype(np.complex128)).max())
        assert diff <= 1e-12 * scale
        worst = max(worst, diff / scale if scale else 0.0)
    print(f"ACCEPTANCE 02: PASS - colocated receiver matches tap-for-tap, "
          f"worst relative difference {worst:.1e}")


def _march_oracle(dem, obs, pt, step):
    """Dense independent ray march, endpoints excluded."""
    obs = np.asarray(obs, float)
    pt = np.asarray(pt, float)
    dist = math.hypot(pt[0] - obs[0], pt[1] - obs[1])
    n = max(2, int(math.ceil(dist / step)) + 1)
    t = np.linspace(0.0, 1.0, n + 1)[1:-1]
    xs = obs[0] + t * (pt[0] - obs[0])
    ys = obs[1] + t * (pt[1] - obs[1])
    zs = obs[2] + t * (pt[2] - obs[2])
    return not bool(np.any(dem.heights_at(xs, ys) > zs))


def test_03_visibility_against_dense_ray_march():
    n, cell = 128, 10.0
    y = (np.arange(n) + 0.5) * cell
    ridge = 80.0 * np.exp(-((y - n * cell / 2.0) / (n * cell / 10.0)) ** 2)
    dem = ElevationGrid(heights=np.tile(ridge[:, None], (1, n)), cell_size=cell)
    cover = ClassGrid(classes=np.full((n, n), GRASS, dtype=np.int64), cell_size=cell)
    patches = build_patch_grid(dem, cover, 40.0)
    obs = (640.0, 50.0, 20.0)

    agree = 0
    for center in patches.centers:
        fast = line_of_sight(dem, obs, center)
        dense = _march_oracle(dem, obs, center, cell / 10.0)
        agree += int(fast == dense)
    assert agree == len(patches)

    # one isolated hill throws a single contiguous shadow sector
    x = (np.arange(n) + 0.5) * cell
    yn = ((n - 1 - np.arange(n)) + 0.5) * cell
    xx, yy = np.meshgrid(x, yn)
    hill = 90.0 * np.exp(-(((xx - 640.0) ** 2) + ((yy - 640.0) ** 2)) / (2.0 * 80.0 ** 2))
    dem2 = ElevationGrid(heights=hill, cell_size=cell)
    patches2 = build_patch_grid(dem2, cover, 40.0)
    obs2 = np.array([160.0, 640.0, 15.0])
    visible = lines_of_sight(dem2, obs2, patches2.centers)

    centers = patches2.centers
    rel = centers[:, :2] - obs2[:2]
    rng_xy = np.hypot(rel[:, 0], rel[:, 1])
    az = np.degrees(np.arctan2(rel[:, 1], rel[:, 0]))   # hill sits at az 0
    ring = (rng_xy > 700.0) & (rng_xy < 1100.0)
    shadow_az = np.sort(az[ring & ~visible])
    assert shadow_az.size > 0
    assert np.all(np.abs(shadow_az) < 25.0)             # confined behind the hill
    assert np.all(np.diff(shadow_az) <= 5.0)            # no holes in the sector
    assert not visible[ring & (np.abs(az) < 10.0)].any()
    print(f"ACCEPTANCE 03: PASS - {agree}/{len(patches)} rays agree with the "
          f"dense march; shadow sector spans {shadow_az[0]:.1f} to "
          f"{shadow_az[-1]:.1f} deg")


def test_04_sample_covariance_converges_at_root_k():
    arr = ArrayGeometry.ula(4, 0.015, 0.03, axis=(0.0, 1.0, 0.0),
                            boresight=(1.0, 0.0, 0.0))
    rng = derive_rng(404, 0)
    gains = rng.uniform(0.5, 2.0, 30)
    rows = []
    for u in np.linspace(-0.8, 0.8, 30):
        d = np.array([math.sqrt(1.0 - u * u), u, 0.0])
        sp = spatial_steering(arr, d)
        tm = temporal_steering(0.45 * u, 4)
        rows.append(space_time_steering(sp, tm))
    steer = np.array(rows)                 # 30 patches x (NM = 16)

    r_true = clutter_covariance(gains, steer)
    scale = np.linalg.norm(r_true)
    err1 = np.linalg.norm(
        sample_covariance(draw_snapshots(gains, steer, 100_000, seed=7)) - r_true) / scale
    err2 = np.linalg.norm(
        sample_covariance(draw_snapshots(gains, steer, 400_000, seed=8)) - r_true) / scale
    assert err1 <= 0.05
    ratio = err1 / err2
    assert 1.3 <= ratio <= 3.1
    print(f"ACCEPTANCE 04: PASS - relative Frobenius error {err1:.4f} at 1e5 "
          f"draws, improvement factor {ratio:.2f} at 4e5")


def test_05_waveform_optimum_is_the_eigensolution():
    worst_rel = 0.0
    for trial in range(20):
        rng = derive_rng(505, trial)
        fc = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ft = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = ChannelMoments.from_second_moments(fc @ fc.conj().T,
                                               ft @ ft.conj().T, 0.05)
        s_opt, lam = optimal_waveform(m)
        rel = abs(scnr(s_opt, m) - lam) / lam
        assert rel <= 1e-9
        worst_rel = max(worst_rel, rel)
        for _ in range(1000):
            probe = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            probe = probe / np.linalg.norm(probe)
            assert scnr(probe, m) < lam

    # flat channels leave no design headroom
    eye = np.eye(8, dtype=np.complex128)
    iso = ChannelMoments(clutter_plus_noise=2.0 * eye, target=3.0 * eye,
                         noise_power=0.0)
    assert abs(max_gain_db(iso)) <= 1e-6

    def delta_moment(tap, amp, length, p):
        taps = np.zeros(length, dtype=np.complex128)
        taps[tap] = amp
        return ensemble_second_moment(lambda k: taps, p, 1)

    single = ChannelMoments.from_second_moments(
        delta_moment(3, 1.5 - 0.5j, 20, 8), delta_moment(7, 0.8j, 20, 8), 0.5)
    assert abs(max_gain_db(single)) <= 1e-6

    # spread channels: the reported headroom is exactly the eigen ratio
    rng = derive_rng(505, 99)
    fc = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    ft = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    spread = ChannelMoments.from_second_moments(fc @ fc.conj().T,
                                                ft @ ft.conj().T, 0.05)
    vals = generalized_eigenvalues(spread)
    assert max_gain_db(spread) == 10.0 * np.log10(vals[-1] / vals[0])
    print(f"ACCEPTANCE 05: PASS - 20 eigensolutions to {worst_rel:.1e} relative, "
          f"20000 random probes beaten, flat channels at 0 dB")


def test_06_fast_convolution_matches_direct():
    worst = 0.0
    for k in range(100):
        rng = derive_rng(606, k)
        l = int(rng.integers(1, 129))
        p = int(rng.integers(1, 65))
        h = rng.standard_normal(l) + 1j * rng.standard_normal(l)
        s = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        fast = convolve_pulse(h, s)
        direct = np.zeros(l + p - 1, dtype=np.complex128)
        for i in range(l):
            direct[i:i + p] += h[i] * s
        scale = np.abs(direct).max()
        err = np.abs(fast - direct).max() / scale
        assert err <= 1e-12
        worst = max(worst, err)
    print(f"ACCEPTANCE 06: PASS - 100 random cases within {worst:.1e} of the "
          f"direct convolution")


def test_07_waveform_swap_without_resynthesis(tmp_path, monkeypatch):
    scn = flat_scene_scenario()
    run = simulate_scenario(scn)                      # probing waveform: LFM
    export_challenge(run, tmp_path / "ds")

    new_wf = phase_code(9, scn.sample_rate, seed=31)

    data = read_challenge(tmp_path / "ds")

    def forbidden(*a, **k):
        raise AssertionError("channel synthesis ran during waveform regeneration")

    # regeneration may only convolve stored channels; block every synthesis
    # entry point and the geometry pipeline behind them
    monkeypatch.setattr("rfclutter.channel.synthesize_ir", forbidden)
    monkeypatch.setattr("rfclutter.channel.patch_responses", forbidden)
    monkeypatch.setattr("rfclutter.pipeline.synthesize_clutter", forbidden)
    monkeypatch.setattr("rfclutter.pipeline.synthesize_targets", forbidden)
    regenerated = simulate_cube(data.clutter_irs[0], data.target_irs[0], new_wf,
                                noise_power=0.0, seed=scn.seed, cpi_index=0)
    monkeypatch.undo()

    fresh = pipeline.simulate_cpi(scn, pipeline.build_scene(scn), 0, new_wf)
    scale = np.abs(fresh.cube.samples).max()
    diff = np.abs(regenerated.samples - fresh.cube.samples).max()
    assert diff <= 1e-10 * scale
    print(f"ACCEPTANCE 07: PASS - regenerated cube within {diff / scale:.1e} "
          f"of a fresh run, synthesis untouched")


def test_08_wind_widens_the_sea_doppler_ridge():
    dem = ElevationGrid(heights=np.zeros((24, 24)), cell_size=30.0)
    cover = ClassGrid(classes=np.full((24, 24), WATER, dtype=np.int64),
                      cell_size=30.0)

    def spectrum_spread(wind, seed):
        # high platform: steep look angles keep the geometric Doppler
        # unaliased so the wind term dominates the spread
        scn = Scenario(
            name="sea", carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2000.0,
            num_pulses=64, num_channels=1, num_cpis=1,
            pulse_duration_s=1e-6, noise_power=0.0, swath_m=4000.0,
            tx_position=np.array([360.0, 360.0, 3000.0]),
            tx_velocity=np.array([25.0, 0.0, 0.0]),
            dem=dem, landcover=cover, patch_size_m=60.0,
            wind_speed_mps=wind, seed=seed,
        )
        scene = pipeline.build_scene(scn)
        ir = pipeline.synthesize_clutter(scn, scene, 0, scn.timing())
        spec = doppler_process(ir.taps[0].astype(np.complex128))
        power = np.abs(spec) ** 2
        return wind_doppler_spread(power, doppler_axis(64, 2000.0))

    wins = sum(spectrum_spread(30.0, 100 + t) > spectrum_spread(5.0, 100 + t)
               for t in range(100))
    assert wins >= 95
    print(f"ACCEPTANCE 08: PASS - 30 m/s wind broadened the spectrum in "
          f"{wins}/100 trials")


def test_09_waveform_separation_ordering():
    fs = 10e6
    one_tap = ChannelImpulseResponse(
        taps=np.ones((1, 4, 1), dtype=np.complex64), sample_rate=fs, prf=2000.0)

    def leakage(wf_a, wf_b):
        cubes = [assemble_cube([([one_tap], w)], noise_power=0.0, seed=1)
                 for w in (wf_a, wf_b)]
        return cross_channel_leakage(cubes, [wf_a, wf_b])

    # delay-disjoint: half-frame pulses that never overlap at the only lag
    a = np.zeros(16, dtype=np.complex128)
    b = np.zeros(16, dtype=np.complex128)
    a[:8] = 1.0 / math.sqrt(8.0)
    b[8:] = 1.0 / math.sqrt(8.0)
    disjoint = leakage(Waveform(samples=a, sample_rate=fs),
                       Waveform(samples=b, sample_rate=fs))[0, 1]

    up = lfm(4e6, 6.4e-6, fs)
    down = lfm(4e6, 6.4e-6, fs, direction="down")
    chirp_pair = leakage(up, down)[0, 1]

    same = leakage(up, up)
    identical = same[0, 1]

    assert disjoint < -40.0
    assert disjoint == LEAKAGE_FLOOR_DB
    assert disjoint < chirp_pair < identical
    assert identical == pytest.approx(0.0, abs=1e-9)
    print(f"ACCEPTANCE 09: PASS - leakage ordering {disjoint:.0f} dB < "
          f"{chirp_pair:.1f} dB < {identical:.1f} dB")


def acf_width_3db(wf):
    """Half-power width of the band-limited autocorrelation, seconds."""
    spectrum = np.abs(np.fft.fft(wf.samples, 4 * wf.samples.shape[0])) ** 2
    freqs = np.fft.fftfreq(spectrum.shape[0], 1.0 / wf.sample_rate)
    lags = np.linspace(-6.0, 6.0, 1537) / wf.sample_rate
    acf = np.abs(np.exp(2j * np.pi * np.outer(lags, freqs)) @ spectrum)
    peak_idx = int(np.argmax(acf))
    half = acf[peak_idx] / math.sqrt(2.0)
    lo = peak_idx
    while lo > 0 and acf[lo - 1] >= half:
        lo -= 1
    hi = peak_idx
    while hi < acf.shape[0] - 1 and acf[hi + 1] >= half:
        hi += 1
    return float(lags[hi] - lags[lo])


def test_10_lfm_mainlobe_tracks_bandwidth():
    reports = []
    for b in (1e6, 5e6, 20e6):
        wf = lfm(bandwidth=b, duration=400.0 / b, sample_rate=2.0 * b)
        width = acf_width_3db(wf)
        rel = abs(width - 1.0 / b) * b
        assert rel < 0.20
        reports.append(f"{b / 1e6:.0f} MHz: {rel * 100:.0f}%")
    print(f"ACCEPTANCE 10: PASS - mainlobe vs 1/B off by {', '.join(reports)}")


def test_11_repeat_runs_are_byte_identical(tmp_path):
    trees = {}
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main(["simulate", "--preset", "scenario1", "--seed", "1",
                       "--out", str(out)])
        assert rc == 0
        trees[name] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert trees["a"].keys() == trees["b"].keys()
    for fname in trees["a"]:
        assert trees["a"][fname] == trees["b"][fname], f"{fname} differs on rerun"
    print(f"ACCEPTANCE 11: PASS - {len(trees['a'])} files byte-identical across reruns")


def test_12_dataset_round_trip_and_full_size_dims(tmp_path):
    scn = Scenario(
        name="roundtrip", carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2000.0,
        num_pulses=8, num_channels=2, num_cpis=2, pulse_duration_s=1e-6,
        noise_power=1e-18, swath_m=1200.0,
        tx_position=np.array([100.0, 600.0, 300.0]),
        tx_velocity=np.array([0.0, 25.0, 0.0]),
        targets=[TargetSpec(position=[900.0, 600.0, 0.0],
                            velocity=[10.0, 0.0, 0.0], rcs=100.0)],
        seed=11,
    )
    run = simulate_scenario(scn)
    first = tmp_path / "first"
    export_challenge(run, first)

    data = read_challenge(first)
    scn_back = parse_scenario((first / "scenario.txt").read_text())
    rebuilt = ScenarioRun(
        scenario=scn_back, scene=None, waveform=data.waveform,
        results=[CPIResult(cpi=i, clutter_ir=data.clutter_irs[i],
                           target_ir=data.target_irs[i], cube=data.cubes[i])
                 for i in range(data.num_cpis)])
    second = tmp_path / "second"
    export_challenge(rebuilt, second)

    a = {p.name: p.read_bytes() for p in first.iterdir()}
    b = {p.name: p.read_bytes() for p in second.iterdir()}
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} changed across the round trip"

    dims = generate_scenario1(scale=1.0).export_dims
    assert dims == (30, 32, 64, 2334)
    print(f"ACCEPTANCE 12: PASS - {len(a)} files byte-stable through "
          f"read/re-export; full-size dims {dims}")


RING_CELL, RING_CELLS, RING_HEIGHT = 10.0, 410, 500.0
RING_EDGES = range(18, 67, 8)       # taps: slant ranges 525 m to 1.96 km


def ring_budget(**overrides):
    """An isotropic monostatic radar (cosine exponent 0, boresight down)
    RING_HEIGHT over the center of flat grass, RING_CELLS square cells
    of RING_CELL a side, one patch per cell.  Returns the scenario, the
    CPI 0 patch gains, each patch's tap (of its range sum, transmitter
    to patch to receiver) and the one-way range of one tap."""
    cell, n, h = RING_CELL, RING_CELLS, RING_HEIGHT
    base = dict(
        name="rings", carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2000.0,
        num_pulses=1, num_channels=1, num_cpis=1, pulse_duration_s=1e-6,
        noise_power=0.0, swath_m=1980.0,
        tx_position=np.array([n * cell / 2.0, n * cell / 2.0, h]), tx_velocity=np.zeros(3),
        boresight=np.array([0.0, 0.0, -1.0]), cosine_exponent=0.0,
        dem=ElevationGrid(heights=np.zeros((n, n)), cell_size=cell), patch_size_m=cell,
    )
    scn = Scenario(**{**base, **overrides})
    scene = pipeline.build_scene(scn)
    tx, rx = pipeline.platform_states(scn, 0)
    timing = scn.timing()
    assert RING_EDGES[-1] <= timing.num_taps
    budget = pipeline.patch_budget(scn, scene, tx, rx, pipeline.receive_array(scn), timing)
    range_sum = (np.linalg.norm(scene.patches.centers - tx.position, axis=1)
                 + np.linalg.norm(scene.patches.centers - rx.position, axis=1))
    taps = np.round(range_sum / C * timing.sample_rate)
    return scn, budget.gains, taps, C / (2.0 * timing.sample_rate)


def test_13_monostatic_ring_clutter_power_matches_the_closed_form():
    """Constant-gamma clutter under an isotropic monostatic radar over
    flat ground: the patch gains summed over whole taps equal the ring
    integral of the range equation.

    With sigma0 = gamma h / R, one isotropic channel and ground element
    dA = 2 pi rho d rho = 2 pi R dR, the expected power of the taps with
    slant range in [R1, R2) is

        gamma lambda^2 2 pi h (R1^-3 - R2^-3) / (3 (4 pi)^3),

    for random-phase scatterers the sum of their gains.  The patches
    sample this integral once per cell of side a, at its center, so the
    bound comes from the discretization alone:
      - a cell straddling a ring edge counts wholly on its center's side,
        and each point of it lies within a / sqrt(2) of its center, so
        the misplaced area lies within a / sqrt(2) of an edge in ground
        range; its power is at most that of those two bands;
      - a cell inside the ring is summed at its center, the midpoint
        rule, whose error is at most a^2 / 24 times the largest
        |f_xx| + |f_yy|, which is 60 f / R^2 for f = R^-5, relative to
        f at the center; f varies across the cell by at most
        ((R + a / sqrt(2)) / (R - a / sqrt(2)))^5.
    The bound is the sum of the two, about cell size / ring width.
    """
    cell, n, h = RING_CELL, RING_CELLS, RING_HEIGHT
    scn, gains, taps, tap_range = ring_budget()
    gamma = 10.0 ** (scn.table().lookup(GRASS, scn.band).gamma_db / 10.0)
    scale = gamma * scn.wavelength ** 2 * 2.0 * math.pi * h / (3.0 * (4.0 * math.pi) ** 3)
    half_diagonal = cell / math.sqrt(2.0)

    def power(r1, r2):
        return scale * (r1 ** -3 - r2 ** -3)

    def slant_of(ground):
        return math.hypot(ground, h)

    worst = 0.0
    for lo, hi in zip(RING_EDGES[:-1], RING_EDGES[1:]):
        r1, r2 = (lo - 0.5) * tap_range, (hi - 0.5) * tap_range
        rho1, rho2 = math.sqrt(r1 ** 2 - h ** 2), math.sqrt(r2 ** 2 - h ** 2)
        assert rho2 + half_diagonal < n * cell / 2.0
        want = power(r1, r2)
        got = float(gains[(taps >= lo) & (taps < hi)].sum())
        bands = sum(power(slant_of(rho - half_diagonal), slant_of(rho + half_diagonal))
                    for rho in (rho1, rho2))
        near = slant_of(rho1 - half_diagonal)
        midpoint = (cell ** 2 / 24.0 * 60.0 / near ** 2
                    * ((near + half_diagonal) / (near - half_diagonal)) ** 5)
        bound = bands / want + midpoint
        assert abs(got / want - 1.0) <= bound, (lo, hi, got / want, bound)
        worst = max(worst, abs(got / want - 1.0))
    print(f"ACCEPTANCE 13: PASS - ring clutter power within {worst:.2e} of the closed form")


def test_14_a_wall_shadows_the_ground_out_to_its_geometric_shadow_edge():
    """A straight wall of height H across flat ground, a distance rho0
    in front of an isotropic monostatic radar at height h > H, hides the
    ground behind it only out to the geometric shadow edge, and leaves
    every other patch's gain as it is without the wall.

    A patch at ground distance rho from the radar (measured across the
    wall) is seen along a ray that both clearance lifts raise by c
    (`terrain.LOS_CLEARANCE_M`): from height h + c to height c.  Over the
    wall that ray is at z_w = h + c - h rho0 / rho, so it clears a wall
    of height H exactly when rho >= rho_s = h rho0 / (h + c - H).

    The wall is one column of DEM nodes at height H, so the bilinear
    terrain is a tent H (1 - |x - x_w| / cell) one cell either side of
    it; the ray is sampled every half cell at most.  The margins follow
    from those two and from the patches alone:
      - before the wall: a patch center at least two cells in front of
        the wall has the height and the normals (central differences one
        cell either side) of flat ground, and its rays never reach the
        tent, so its gain is the wall-free gain bit for bit;
      - in the shadow: a patch center more than one cell behind the
        wall sits on flat ground, and some ray sample lies within a
        quarter cell of the wall crossing, where the tent is at least
        3H/4 and the ray at most z_w + h cell / (4 rho); so the ray is
        blocked and the gain is exactly zero wherever
        rho < rho_sure = h (rho0 - cell / 4) / (h + c - 3H/4);
      - beyond rho_s: z_w >= H, and the ray descends more gently than
        the tent (h / rho <= H / cell), so it is above the terrain
        everywhere and the gain is again the wall-free gain bit for bit,
        once the patch center is two cells behind the wall.
    Patches between rho_sure and rho_s may go either way and are not
    checked.  Patch centers lie one patch apart, so each zone is checked
    on at least one column of patches.
    """
    cell, rows, cols, wall_col = 10.0, 40, 160, 80
    h, wall_height = 300.0, 100.0
    c = terrain.LOS_CLEARANCE_M
    platform = np.array([50.0, rows * cell / 2.0, h])
    x_wall = (wall_col + 0.5) * cell
    rho0 = x_wall - platform[0]
    rho_s = h * rho0 / (h + c - wall_height)
    rho_sure = h * (rho0 - cell / 4.0) / (h + c - 0.75 * wall_height)
    assert h / rho_s <= wall_height / cell

    def gains(heights):
        scn = Scenario(
            name="wall", carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2000.0,
            num_pulses=1, num_channels=1, num_cpis=1, pulse_duration_s=1e-6,
            noise_power=0.0, swath_m=1700.0, tx_position=platform, tx_velocity=np.zeros(3),
            boresight=np.array([0.0, 0.0, -1.0]), cosine_exponent=0.0,
            dem=ElevationGrid(heights=heights, cell_size=cell), patch_size_m=cell,
        )
        scene = pipeline.build_scene(scn)
        tx, rx = pipeline.platform_states(scn, 0)
        budget = pipeline.patch_budget(scn, scene, tx, rx, pipeline.receive_array(scn),
                                       scn.timing())
        return scene.patches.centers[:, 0], budget.gains

    flat = np.zeros((rows, cols))
    walled = flat.copy()
    walled[:, wall_col] = wall_height
    x, open_gains = gains(flat)
    x_walled, wall_gains = gains(walled)
    assert np.array_equal(x, x_walled) and np.all(open_gains > 0.0)
    rho = x - platform[0]
    before = x <= x_wall - 2.0 * cell
    shadow = (x > x_wall + cell) & (rho < rho_sure)
    beyond = (x >= x_wall + 2.0 * cell) & (rho >= rho_s)
    assert all(np.count_nonzero(zone) >= rows for zone in (before, shadow, beyond))
    assert wall_gains[before].tobytes() == open_gains[before].tobytes()
    assert np.all(wall_gains[shadow] == 0.0)
    assert wall_gains[beyond].tobytes() == open_gains[beyond].tobytes()
    print(f"ACCEPTANCE 14: PASS - {np.count_nonzero(shadow)} patches dark from "
          f"{rho0 + cell:.0f} to {rho_sure:.0f} m, the {np.count_nonzero(before)} before the "
          f"wall and the {np.count_nonzero(beyond)} beyond {rho_s:.0f} m unchanged")


def test_15_transmit_array_pattern_ring_power_matches_the_bessel_closed_form():
    """Test 13's rings under a transmit array: N uniform elements spaced
    d along a horizontal axis, weighted alike, multiply each patch gain
    by A = |AF|^2 = sum_{m,n} exp(j (m - n) psi), psi = kappa <axis, r>
    for the unit vector r from the array to the patch and kappa =
    2 pi d / lambda.  At grazing angle psi_g and azimuth phi from the
    axis, psi = kappa cos(psi_g) cos(phi), and the azimuthal mean of
    exp(j k psi) is J0(k kappa cos psi_g), so

        <A>(R) = N + 2 sum_{k=1}^{N-1} (N - k) J0(k kappa cos psi_g(R)),

    and the taps with slant range in [R1, R2) hold

        gamma lambda^2 h / (4 pi)^3  int_R1^R2 2 pi <A> R^-4 dR,

    integrated by `quad`.  The bound is test 13's, with f = A R^-5 (up
    to the constant factor) in place of R^-5:
      - the misplaced area lies within a / sqrt(2) of an edge in ground
        range; its power is at most that of the two bands, which the
        same integral gives;
      - a cell inside the ring is summed at its center, the midpoint
        rule, whose error is at most a^4 / 12 times the largest second
        derivative of f along any ground direction e.  Along e the unit
        vector r turns at most 1 / R and bends at most (2 / sqrt 3) / R^2,
        and R changes at most 1 and bends at most 1 / R, so
        |d_e psi| <= kappa / R, |d_ee psi| <= (2 / sqrt 3) kappa / R^2,
        |d_e R^-5| <= 5 R^-6 and |d_ee R^-5| <= 30 R^-7.  A's cosine
        series has |A| <= N^2, |A'| <= A1 = N (N^2 - 1) / 3 and
        |A''| <= A2 = N^2 (N^2 - 1) / 6, so
        |d_ee f| <= (A2 kappa^2 + (10 + 2 / sqrt 3) A1 kappa + 30 N^2) R^-7;
        R^-7 varies across a cell by at most ((R + a / sqrt 2) /
        (R - a / sqrt 2))^7, and a^2 R^-5 at a center is at most the
        cell's integral of R^-5 times the same ratio to the fifth, so the
        cells sum to at most a^2 / 12 times that bracket over the nearest
        R^2, times the ratio to the twelfth, times test 13's R^-5 ring
        power over the ring widened by a / sqrt 2.
    The bound is the sum of the two over the ring's power.
    """
    cell, h = RING_CELL, RING_HEIGHT
    elements, spacing_in_wavelengths = 4, 0.6
    wavelength = C / 10e9
    scn, gains, taps, tap_range = ring_budget(
        num_channels=elements, array_axis=np.array([1.0, 0.0, 0.0]),
        array_spacing_m=spacing_in_wavelengths * wavelength)
    assert scn.wavelength == wavelength
    kappa = 2.0 * math.pi * spacing_in_wavelengths
    gamma = 10.0 ** (scn.table().lookup(GRASS, scn.band).gamma_db / 10.0)
    constant = gamma * wavelength ** 2 * h / (4.0 * math.pi) ** 3
    half_diagonal = cell / math.sqrt(2.0)
    a1 = elements * (elements ** 2 - 1) / 3.0
    a2 = elements ** 2 * (elements ** 2 - 1) / 6.0
    bracket = (a2 * kappa ** 2 + (10.0 + 2.0 / math.sqrt(3.0)) * a1 * kappa
               + 30.0 * elements ** 2)

    def mean_af(r):
        u = kappa * math.sqrt(r * r - h * h) / r
        return elements + 2.0 * sum((elements - k) * j0(k * u) for k in range(1, elements))

    def power(r1, r2):
        integral, _ = quad(lambda r: 2.0 * math.pi * mean_af(r) * r ** -4, r1, r2,
                           epsabs=0.0, epsrel=1e-10)
        return constant * integral

    def isotropic_power(r1, r2):
        return constant * 2.0 * math.pi * (r1 ** -3 - r2 ** -3) / 3.0

    def slant_of(ground):
        return math.hypot(ground, h)

    worst = 0.0
    for lo, hi in zip(RING_EDGES[:-1], RING_EDGES[1:]):
        r1, r2 = (lo - 0.5) * tap_range, (hi - 0.5) * tap_range
        rho1, rho2 = math.sqrt(r1 ** 2 - h ** 2), math.sqrt(r2 ** 2 - h ** 2)
        assert rho2 + half_diagonal < RING_CELLS * cell / 2.0
        want = power(r1, r2)
        got = float(gains[(taps >= lo) & (taps < hi)].sum())
        bands = sum(power(slant_of(rho - half_diagonal), slant_of(rho + half_diagonal))
                    for rho in (rho1, rho2))
        near = slant_of(rho1 - half_diagonal)
        midpoint = (cell ** 2 / 12.0 * bracket / near ** 2
                    * ((near + half_diagonal) / (near - half_diagonal)) ** 12
                    * isotropic_power(near, slant_of(rho2 + half_diagonal)))
        bound = (bands + midpoint) / want
        assert abs(got / want - 1.0) <= bound, (lo, hi, got / want, bound)
        worst = max(worst, abs(got / want - 1.0))
    print(f"ACCEPTANCE 15: PASS - {elements}-element transmit pattern ring power within "
          f"{worst:.2e} of the Bessel closed form")


def side_looking_channel(beta: float, **overrides):
    """A monostatic 8-channel, 8-pulse radar 300 m over flat 30 m grass
    cells, looking east with its array along north and flying north at
    beta d PRF / 2 for element spacing d = lambda / 2.  Returns the
    scenario, its scene, the CPI 0 clutter channel and, per occupied tap,
    the sum of its scatterers' amplitude moduli, sqrt(gain) each."""
    wavelength, prf = C / 10e9, 2000.0
    base = dict(
        name="side-looking", carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=prf,
        num_pulses=8, num_channels=8, num_cpis=1, pulse_duration_s=1e-6,
        noise_power=0.0, swath_m=1200.0,
        tx_position=np.array([100.0, 600.0, 300.0]),
        tx_velocity=np.array([0.0, beta * wavelength * prf / 4.0, 0.0]),
        array_axis=np.array([0.0, 1.0, 0.0]), boresight=np.array([1.0, 0.0, 0.0]),
        dem=ElevationGrid(heights=np.zeros((40, 40)), cell_size=30.0), patch_size_m=30.0)
    scn = Scenario(**{**base, **overrides})
    assert scn.array_spacing_m == 0.0 and scn.wavelength == wavelength   # d = lambda / 2
    scene = pipeline.build_scene(scn)
    timing = scn.timing()
    tx, rx = pipeline.platform_states(scn, 0)
    budget = pipeline.patch_budget(scn, scene, tx, rx, pipeline.receive_array(scn), timing)
    slant = np.linalg.norm(scene.patches.centers - tx.position, axis=1)
    taps = np.round((slant + slant) / C * timing.sample_rate).astype(np.int64)
    moduli = np.bincount(taps, weights=np.sqrt(budget.gains), minlength=timing.num_taps)
    ir = pipeline.synthesize_clutter(scn, scene, 0, timing)
    assert np.array_equal(ir.support, np.flatnonzero(moduli))
    responses = np.bincount(taps, weights=budget.gains > 0.0)[ir.support]
    return scn, scene, ir, moduli[ir.support], int(responses.max())


def shift_residual(taps: np.ndarray, moduli: np.ndarray, p: int, q: int) -> float:
    """The largest |H[n, m] - H[n + p, m - q]| over every tap's (N, M)
    matrix H and every pair inside it, relative to the tap's sum of
    amplitude moduli."""
    n, m = taps.shape[:2]
    a = taps[:n - p, max(q, 0):m + min(q, 0)].astype(np.complex128)
    b = taps[p:, max(-q, 0):m - max(q, 0)].astype(np.complex128)
    return float(np.max(np.abs(a - b) / moduli))


def test_16_the_side_looking_clutter_ridge_is_a_shift_invariance():
    """A scatterer in unit direction u from a side-looking array whose
    platform flies along the array axis e contributes

        a exp(j theta (n + beta m)),  theta = pi <e, u>,

    to channel n and pulse m of its tap: the steering entry is
    exp(j 2 pi d <e, u> n / lambda) and the Doppler 2 v <e, u> / lambda
    gives the pulse-to-pulse phase 4 pi v <e, u> / (lambda PRF), which is
    beta theta at v = beta d PRF / 2.  With the spatial and Doppler phases
    of one sign, every tap's (N, M) matrix is therefore unchanged by
    (n, m) -> (n + p, m - q) for beta = p / q, Hankel at beta = 1: the
    clutter ridge of Ward (MIT LL TR-1015, 1994) and Klemm (Principles
    of Space-Time Adaptive Processing, 2002), of slope beta.  Opposite
    signs would make it Toeplitz, a ridge of slope -beta, which the
    (1, 1) shift checks is far from the case.

    The bound is the arithmetic's.  Each entry is a complex128 sum of r
    terms cast to complex64; the cast rounds the real and imaginary parts
    to nearest, so it moves an entry by at most 2^-24 |H| <= 2^-24 S, for S
    the tap's sum of amplitude moduli, and two entries differ by at most
    2^-23 S more than they would exactly.  In complex128, the phase
    arguments carry a relative rounding of a few 2^-53 each, times at
    most 7 pulses or channels and |theta| <= 2 pi, the `phase_ramps`
    products at most three correctly rounded exponentials and two
    multiplies each, and the sum of r terms at most 2 r 2^-53 S; all
    together below (4 r + 1200) 2^-53 S for the pair.  There is no
    Doppler jitter, which would break the invariance by design.
    """
    worst = 0.0
    for beta, (p, q) in ((1.0, (1, 1)), (2.0, (2, 1)), (0.5, (1, 2))):
        scn, _, ir, moduli, r = side_looking_channel(beta)
        assert scn.clutter_doppler_std_hz == 0.0 and ir.support.size >= 20
        bound = 2.0 ** -23 + (4 * r + 1200) * 2.0 ** -53
        residual = shift_residual(ir.taps, moduli, p, q)
        assert residual <= bound, (beta, residual, bound)
        worst = max(worst, residual)
        if beta == 1.0:
            toeplitz = shift_residual(ir.taps, moduli, 1, -1)
            assert toeplitz > 1e3 * bound, toeplitz
    print(f"ACCEPTANCE 16: PASS - side-looking ridge invariant to {worst:.1e} of each tap's "
          f"amplitude sum at beta = 1, 2 and 1/2; Toeplitz shift off by {toeplitz:.2f}")


def test_17_bistatic_band_power_matches_independent_quadrature():
    """Test 13's flat grass under the same isotropic transmitter, now
    received by a stationary isotropic receiver h_r high, b east of it.
    A tap holds the patches whose range sum S = R_t + R_r rounds to it,
    and with sigma0 = gamma h_t / R_t (constant gamma on the transmit
    grazing angle, the package's convention) the taps with S in
    [S1, S2) hold the bistatic range equation over that ground band,

        gamma lambda^2 / (4 pi)^3  iint_{S1 <= S < S2} h_t / (R_t^3 R_r^2) dA.

    The integral is taken in polar coordinates about the transmitter's
    foot, on one half plane (the geometry is symmetric about the
    baseline), with `quad` along each ray and across the rays.  S is
    convex along a ray, so {S < s} is one interval of it; its ends come
    from `brentq` on either side of the ray's minimum.

    The bound is test 13's and test 15's, with S in place of the slant
    range:
      - a cell counts wholly on its center's side of a band edge S_e, and
        each of its points lies within a / sqrt 2 of its center on the
        ground.  Along a ground direction |grad S| <= rho_t / R_t
        + rho_r / R_r, and since R_r >= h_r and R_t >= h_t, a point with
        S <= s has R_t <= s - h_r and R_r <= s - h_t, so
        |grad S| <= G(s) = sqrt(1 - h_t^2 / (s - h_r)^2)
        + sqrt(1 - h_r^2 / (s - h_t)^2) < 2.  A cell that straddles the
        edge so lies within m = G(S_e + sqrt 2 a) a / sqrt 2 of it in S.
        The cells counted in the band add power from outside it, in the
        strip of width m on the outer side of the edge, and the cells
        left out take away power from inside it, in the strip on the
        inner side; the two have opposite signs, so the edge moves the
        sum by at most the larger strip power, which the same
        quadrature gives;
      - a cell is summed at its center, which misses the cell's
        integral by at most a^4 / 12 times the largest second derivative
        of f = h_t R_t^-3 R_r^-2 along any ground direction.  Along a
        ground direction |R'| <= 1 and 0 <= R'' <= 1 / R, so
        |(R^-p)''| <= p (p + 2) R^-p-2 and |(R^-p)'| <= p R^-p-1, and
        |f''| <= f (15 / R_t^2 + 12 / (R_t R_r) + 8 / R_r^2), at most f
        times that bracket at R_t = h_t and R_r = h_r.  Across a cell f
        is at most its center value times
        (h_t / (h_t - a / sqrt 2))^3 (h_r / (h_r - a / sqrt 2))^2, so the
        cells' sum is within delta = a^2 / 12 times the bracket times
        that ratio of their own integral.
    With the band power P and the two edges' strip bounds E, the sum G
    obeys |G - P| <= E + delta G, so
    |G / P - 1| <= E / P + delta (1 + E / P) / (1 - delta).
    """
    cell, n, h_t = RING_CELL, RING_CELLS, RING_HEIGHT
    h_r, b = 300.0, 400.0
    center = n * cell / 2.0
    scn, gains, taps, tap_range = ring_budget(
        rx_position=np.array([center + b, center, h_r]))
    gamma = 10.0 ** (scn.table().lookup(GRASS, scn.band).gamma_db / 10.0)
    constant = gamma * scn.wavelength ** 2 / (4.0 * math.pi) ** 3
    half_diagonal = cell / math.sqrt(2.0)
    edges = range(17, 38, 4)           # taps: range sums 989 m to 2.19 km
    assert edges[-1] <= scn.timing().num_taps

    def range_sum(rho, phi):
        return (math.hypot(rho, h_t)
                + math.sqrt((rho * math.cos(phi) - b) ** 2 + (rho * math.sin(phi)) ** 2
                            + h_r ** 2))

    def density(rho, phi):
        """f rho, the integrand in polar coordinates."""
        r_t2 = rho * rho + h_t * h_t
        r_r2 = (rho * math.cos(phi) - b) ** 2 + (rho * math.sin(phi)) ** 2 + h_r * h_r
        return rho * h_t / (r_t2 * math.sqrt(r_t2) * r_r2)

    def below(s):
        """The power of the ground where S < s."""
        def ray(phi):
            lowest = minimize_scalar(lambda rho: range_sum(rho, phi), bounds=(0.0, b),
                                     method="bounded", options={"xatol": 1e-9}).x
            if range_sum(lowest, phi) >= s:
                return 0.0
            near = (0.0 if range_sum(0.0, phi) < s else
                    brentq(lambda rho: range_sum(rho, phi) - s, 0.0, lowest, xtol=1e-12))
            # S >= R_t > rho, so S exceeds s at rho = s
            far = brentq(lambda rho: range_sum(rho, phi) - s, lowest, s, xtol=1e-12)
            return quad(density, near, far, args=(phi,), epsabs=0.0, epsrel=1e-11)[0]

        return 2.0 * constant * quad(ray, 0.0, math.pi, epsabs=0.0, epsrel=1e-9, limit=200)[0]

    def power(s1, s2):
        return below(s2) - below(s1)

    def strip(edge):
        """Test 17's bound on how far the cells at a band edge move its sum."""
        def slope(s):
            return (math.sqrt(1.0 - (h_t / (s - h_r)) ** 2)
                    + math.sqrt(1.0 - (h_r / (s - h_t)) ** 2))

        m = slope(edge + 2.0 * half_diagonal) * half_diagonal
        return max(power(edge - m, edge), power(edge, edge + m))

    bracket = 15.0 / h_t ** 2 + 12.0 / (h_t * h_r) + 8.0 / h_r ** 2
    ratio = (h_t / (h_t - half_diagonal)) ** 3 * (h_r / (h_r - half_diagonal)) ** 2
    delta = cell ** 2 / 12.0 * bracket * ratio
    # every band and its edge bands lie on the raster: S >= 2 R_t - |tx - rx|
    reach = ((edges[-1] - 0.5) * 2.0 * tap_range + 2.0 * half_diagonal + math.hypot(b, h_t - h_r))
    assert math.sqrt((reach / 2.0) ** 2 - h_t ** 2) + half_diagonal < center
    ratios, tightest = [], math.inf
    for lo, hi in zip(edges[:-1], edges[1:]):
        s1, s2 = (lo - 0.5) * 2.0 * tap_range, (hi - 0.5) * 2.0 * tap_range
        want = power(s1, s2)
        got = float(gains[(taps >= lo) & (taps < hi)].sum())
        edge = (strip(s1) + strip(s2)) / want
        bound = edge + delta * (1.0 + edge) / (1.0 - delta)
        assert abs(got / want - 1.0) <= bound, (lo, hi, got / want, bound)
        ratios.append(got / want)
        tightest = min(tightest, bound)
    print(f"ACCEPTANCE 17: PASS - bistatic band power over quadrature "
          f"{', '.join(f'{r:.5f}' for r in ratios)}, bounds from {tightest:.3f}")


def test_18_doppler_jitter_decorrelates_pulses_by_the_gaussian_factor():
    """With intrinsic-motion Doppler jitter of standard deviation sigma,
    each scatterer's Doppler is its geometric one plus sigma z, z a
    standard normal drawn apart from its uniform phase.  Over a
    stationary platform the geometric Doppler is zero, so a tap
    h_m = sum_s a_s exp(j 2 pi sigma z_s m / PRF) has

        E[h_m conj(h_{m+k})] / E|h_m|^2 = exp(-(2 pi sigma k / PRF)^2 / 2),

    the characteristic function of the normal at 2 pi k / PRF.  The
    channel is that of test 16's scene with one channel and the
    platform at rest, drawn with independent seeds.

    The estimate is the ratio of sums over every (seed, tap) unit of
    X = mean_m Re h_m conj(h_{m+k}) and Y = mean_m |h_m|^2.  Distinct
    taps hold distinct scatterers and distinct seeds independent draws,
    so the units are independent and the ratio's standard error is, by
    the delta method, sqrt(sum (X - rho Y)^2) / sum Y.  The bound is
    five standard errors, which a normal estimate exceeds with
    probability below 1e-6; the estimate's own bias is of order 1 / K for
    K units, far below it.
    """
    prf, seeds = 2000.0, 120
    worst = 0.0
    for sigma, lags in ((100.0, (1, 2, 3, 4)), (200.0, (1, 2, 3))):
        scn, scene, _, _, _ = side_looking_channel(0.0, num_channels=1,
                                                   clutter_doppler_std_hz=sigma)
        assert scn.prf_hz == prf and not np.any(scn.tx_velocity)
        timing = scn.timing()
        m = scn.num_pulses
        units = []
        for seed in range(seeds):
            h = pipeline.synthesize_clutter(scn, scene, 0, timing, seed=seed).taps[0]
            h = h.astype(np.complex128)                 # (pulses, occupied taps)
            power = np.mean(np.abs(h) ** 2, axis=0)
            lagged = [np.mean((h[:m - k] * h[k:].conj()).real, axis=0) for k in lags]
            units.append(np.vstack([power] + lagged))
        x = np.hstack(units)
        assert x.shape[1] >= 20 * seeds
        for row, k in enumerate(lags, start=1):
            estimate = x[row].sum() / x[0].sum()
            error = math.sqrt(np.sum((x[row] - estimate * x[0]) ** 2)) / x[0].sum()
            want = math.exp(-0.5 * (2.0 * math.pi * sigma * k / prf) ** 2)
            assert abs(estimate - want) <= 5.0 * error, (sigma, k, estimate, want, error)
            worst = max(worst, abs(estimate - want) / error)
    print(f"ACCEPTANCE 18: PASS - pulse correlation under Doppler jitter within "
          f"{worst:.2f} standard errors of the Gaussian factor")
