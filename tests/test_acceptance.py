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

from rfclutter import pipeline
from rfclutter.antenna import ArrayGeometry
from rfclutter.challenge import export_challenge, read_challenge
from rfclutter.channel import (ChannelImpulseResponse, ensemble_second_moment,
                               read_ir)
from rfclutter.cli import main as cli_main
from rfclutter.cofar import (ChannelMoments, generalized_eigenvalues,
                             max_gain_db, optimal_waveform, scnr)
from rfclutter.dsp import doppler_axis, doppler_process, pulse_compress, range_doppler_map
from rfclutter.mimo import (LEAKAGE_FLOOR_DB, cross_channel_leakage,
                            simulate_mimo_cube)
from rfclutter.ocean import wind_doppler_spread
from rfclutter.pipeline import CPIResult, ScenarioRun, simulate_scenario
from rfclutter.rxsim import simulate_cube
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

    fresh = simulate_scenario(scn, waveform=new_wf)
    scale = np.abs(fresh.results[0].cube.samples).max()
    diff = np.abs(regenerated.samples - fresh.results[0].cube.samples).max()
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
        cubes = [simulate_mimo_cube([[one_tap]], [w], noise_power=0.0, seed=1)
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
    cell, n, h = 10.0, 410, 500.0
    scn = Scenario(
        name="rings", carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2000.0,
        num_pulses=1, num_channels=1, num_cpis=1, pulse_duration_s=1e-6,
        noise_power=0.0, swath_m=1980.0,
        tx_position=np.array([n * cell / 2.0, n * cell / 2.0, h]), tx_velocity=np.zeros(3),
        boresight=np.array([0.0, 0.0, -1.0]), cosine_exponent=0.0,
        dem=ElevationGrid(heights=np.zeros((n, n)), cell_size=cell), patch_size_m=cell,
    )
    scene = pipeline.build_scene(scn)
    tx, rx = pipeline.platform_states(scn, 0)
    timing = scn.timing()
    budget = pipeline.patch_budget(scn, scene, tx, rx, pipeline.receive_array(scn), timing)
    slant = np.linalg.norm(scene.patches.centers - tx.position, axis=1)
    taps = np.round(2.0 * slant / C * timing.sample_rate)
    gamma = 10.0 ** (scn.table().lookup(GRASS, scn.band).gamma_db / 10.0)
    scale = gamma * scn.wavelength ** 2 * 2.0 * math.pi * h / (3.0 * (4.0 * math.pi) ** 3)
    tap_range = C / (2.0 * timing.sample_rate)
    half_diagonal = cell / math.sqrt(2.0)

    def power(r1, r2):
        return scale * (r1 ** -3 - r2 ** -3)

    def slant_of(ground):
        return math.hypot(ground, h)

    worst = 0.0
    edges = range(18, 67, 8)       # slant ranges 525 m to 1.96 km
    for lo, hi in zip(edges[:-1], edges[1:]):
        r1, r2 = (lo - 0.5) * tap_range, (hi - 0.5) * tap_range
        rho1, rho2 = math.sqrt(r1 ** 2 - h ** 2), math.sqrt(r2 ** 2 - h ** 2)
        assert rho2 + half_diagonal < n * cell / 2.0 and hi <= timing.num_taps
        want = power(r1, r2)
        got = float(budget.gains[(taps >= lo) & (taps < hi)].sum())
        bands = sum(power(slant_of(rho - half_diagonal), slant_of(rho + half_diagonal))
                    for rho in (rho1, rho2))
        near = slant_of(rho1 - half_diagonal)
        midpoint = (cell ** 2 / 24.0 * 60.0 / near ** 2
                    * ((near + half_diagonal) / (near - half_diagonal)) ** 5)
        bound = bands / want + midpoint
        assert abs(got / want - 1.0) <= bound, (lo, hi, got / want, bound)
        worst = max(worst, abs(got / want - 1.0))
    print(f"ACCEPTANCE 13: PASS - ring clutter power within {worst:.2e} of the closed form")
