"""Scenario pipeline: scene building, link budgets, end-to-end structure."""

import collections
import csv
import dataclasses
import io
import logging
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from rfclutter import channel, ocean, pipeline, rxsim, seeding, terrain, workers
from rfclutter.antenna import phase_ramp_column, phase_ramps, uniform_pattern_gains
from rfclutter.channel import (SPEED_OF_LIGHT, RadarTiming, StochasticModel,
                               patch_responses, synthesize_ir)
from rfclutter.cli import main
from rfclutter.dsp import range_doppler_map
from rfclutter.errors import ConfigurationError
from rfclutter.ocean import pulse_modulation
from rfclutter.scenario import (DESK_SCALE, BuildingGrid, DiscreteSpec,
                                Scenario, TargetSpec, TransmitterSpec,
                                generate_scenario1, generate_scenario2)
from rfclutter.scattering import GRASS, URBAN, WATER, patch_power_scales
from rfclutter.seeding import STREAM_OCEAN, derive_seed
from rfclutter.terrain import (LOS_CLEARANCE_M, ClassGrid, ElevationGrid, grazing_angles,
                               lines_of_sight)

from conftest import ridge_heights
from oracles import bistatic_delay_doppler, doppler_bin_for, line_of_sight, range_bin_for


def tiny_scenario(**overrides):
    """Flat 1.2 km grass scene with a low platform looking east."""
    dem = ElevationGrid(heights=np.zeros((40, 40)), cell_size=30.0)
    base = dict(
        name="tiny",
        carrier_hz=10e9,
        bandwidth_hz=5e6,
        prf_hz=2000.0,
        num_pulses=8,
        num_channels=2,
        num_cpis=2,
        pulse_duration_s=1e-6,
        noise_power=0.0,
        swath_m=1200.0,
        tx_position=np.array([100.0, 600.0, 300.0]),
        tx_velocity=np.array([0.0, 25.0, 0.0]),
        dem=dem,
        patch_size_m=60.0,
    )
    base.update(overrides)
    return Scenario(**base)


def test_build_scene_patch_counts():
    scn = tiny_scenario()
    scene = pipeline.build_scene(scn)
    assert scene.num_terrain_patches == 400        # (1200 / 60)^2
    assert scene.grid_shape == (20, 20)
    assert scene.num_discretes == 0
    assert len(scene.patches) == 400                # no roofs
    assert scene.patches.ids.tolist() == list(range(400))


def test_build_scene_appends_discretes_and_buildings():
    scn = tiny_scenario(
        discretes=[DiscreteSpec(position=[800.0, 600.0, 5.0], rcs=1000.0)],
        buildings=BuildingGrid(origin=np.array([600.0, 540.0]), rows=1, cols=2,
                               footprint=30.0, height=9.0),
    )
    scene = pipeline.build_scene(scn)
    assert scene.num_terrain_patches == 400
    assert scene.num_discretes == 1
    # two roofs between the terrain and the discrete
    assert len(scene.patches) - scene.num_terrain_patches - scene.num_discretes == 2
    # ids continue through roofs into discretes
    assert len(scene.patches) == scene.num_responses == 403
    assert scene.patches.ids[400:].tolist() == [400, 401, 402]
    np.testing.assert_array_equal(scene.patches.centers[402], [800.0, 600.0, 5.0])
    np.testing.assert_array_equal(scene.patches.areas[400:], [900.0, 900.0, 1.0])
    np.testing.assert_array_equal(scene.patches.normals[400:, 2], 1.0)
    # roofs sit at ground + height and the DEM is raised under them
    for roof in scene.patches.centers[400:402]:
        assert roof[2] == pytest.approx(9.0)
    assert float(scene.dem.heights_at(615.0, 555.0)) == pytest.approx(9.0)
    # the original scenario raster is untouched
    assert float(scn.dem.heights_at(615.0, 555.0)) == 0.0


def test_build_scene_target_only_and_guards():
    scn = tiny_scenario(dem=None, targets=[
        TargetSpec(position=[900.0, 600.0, 10.0], velocity=[5.0, 0.0, 0.0], rcs=10.0)])
    assert pipeline.build_scene(scn) is None
    bad = tiny_scenario(dem=None,
                        discretes=[DiscreteSpec(position=[1, 1, 0], rcs=1.0)])
    with pytest.raises(ConfigurationError):
        pipeline.build_scene(bad)


def test_platform_and_target_propagation():
    scn = tiny_scenario(targets=[
        TargetSpec(position=[900.0, 600.0, 0.0], velocity=[-8.0, 2.0, 0.0], rcs=5.0)])
    dt = scn.cpi_interval
    tx, rx = pipeline.platform_states(scn, 3)
    np.testing.assert_allclose(tx.position, [100.0, 600.0 + 25.0 * 3 * dt, 300.0])
    np.testing.assert_array_equal(tx.position, rx.position)   # monostatic default
    (pos, vel, rcs), = pipeline.target_states(scn, 3)
    np.testing.assert_allclose(pos, [900.0 - 8.0 * 3 * dt, 600.0 + 2.0 * 3 * dt, 0.0])
    assert rcs == 5.0
    # explicit bistatic receiver holds its own track
    scn2 = tiny_scenario(rx_position=np.array([200.0, 500.0, 250.0]),
                         rx_velocity=np.array([0.0, -10.0, 0.0]))
    _, rx2 = pipeline.platform_states(scn2, 2)
    np.testing.assert_allclose(rx2.position, [200.0, 500.0 - 10.0 * 2 * dt, 250.0])


def test_patch_budget_zeroes_shadowed_patches():
    heights = np.zeros((40, 40))
    heights[:, 16:18] = 200.0          # north-south wall near x = 500
    scn = tiny_scenario(dem=ElevationGrid(heights=heights, cell_size=30.0),
                        tx_position=np.array([100.0, 600.0, 50.0]))
    scene = pipeline.build_scene(scn)
    tx, rx = pipeline.platform_states(scn, 0)
    arr = pipeline.receive_array(scn)
    budget = pipeline.patch_budget(scn, scene, tx, rx, arr)
    centers = scene.patches.centers
    behind = (centers[:, 0] > 700.0) & (np.abs(centers[:, 1] - 600.0) < 200.0)
    assert behind.any()
    assert not budget.gains[behind].any()
    # patches on the lit side stay nonzero
    lit = (centers[:, 0] > 150.0) & (centers[:, 0] < 450.0)
    assert (budget.gains[lit] > 0.0).all()


def test_patch_budget_window_filter():
    scn = tiny_scenario(tx_position=np.array([100.0, 600.0, 50.0]))
    scene = pipeline.build_scene(scn)
    tx, rx = pipeline.platform_states(scn, 0)
    arr = pipeline.receive_array(scn)
    full = pipeline.patch_budget(scn, scene, tx, rx, arr)
    short = RadarTiming.for_swath(prf=scn.prf_hz, sample_rate=scn.sample_rate,
                                  num_pulses=scn.num_pulses, swath=300.0)
    windowed = pipeline.patch_budget(scn, scene, tx, rx, arr, timing=short)
    r = np.linalg.norm(scene.patches.centers - tx.position, axis=1)
    reach = short.num_taps / scn.sample_rate * 299792458.0 / 2.0
    far = r > reach + 50.0
    assert far.any() and (full.gains[far] > 0).any()
    np.testing.assert_array_equal(windowed.gains[far], 0.0)
    # patches inside the short window keep their full-budget gains
    near = windowed.gains > 0
    assert near.any()
    np.testing.assert_array_equal(windowed.gains[near], full.gains[near])


def test_the_default_grass_cover_sits_on_the_dem_origin():
    """Without a land-cover raster the scene is grass on the DEM's own
    grid, wherever the DEM is anchored; a raster anchored elsewhere is
    a configuration error."""
    dem = ElevationGrid(heights=np.zeros((40, 40)), cell_size=30.0, origin_lat=10.0,
                        origin_lon=20.0)
    anchored = pipeline.build_scene(tiny_scenario(dem=dem))
    assert np.all(anchored.patches.classes == GRASS)
    assert anchored.patches.centers.tobytes() == (
        pipeline.build_scene(tiny_scenario()).patches.centers.tobytes())
    with pytest.raises(ConfigurationError, match="origin"):
        pipeline.build_scene(tiny_scenario(dem=dem, landcover=half_water_cover()))


def test_gain_map_is_north_up():
    classes = np.full((40, 40), WATER, dtype=np.int64)
    classes[:20, :] = URBAN            # rows 0..19 = northern half
    scn = tiny_scenario(landcover=ClassGrid(classes=classes, cell_size=30.0),
                        tx_position=np.array([15.0, 600.0, 300.0]))
    gm = pipeline.gain_map(scn)
    assert gm.gains_db.shape == (20, 20)
    north = gm.gains_db[:8][gm.visible[:8]]
    south = gm.gains_db[-8:][gm.visible[-8:]]
    # urban returns sit ~23 dB over water; orientation flips would swap this
    assert north.mean() > south.mean() + 10.0
    with pytest.raises(ConfigurationError):
        pipeline.gain_map(tiny_scenario(dem=None, targets=[
            TargetSpec(position=[1, 1, 1], velocity=[0, 0, 0], rcs=1.0)]))


def test_channel_moments_shape_and_floor():
    scn = tiny_scenario(noise_power=0.5, targets=[
        TargetSpec(position=[900.0, 600.0, 0.0], velocity=[10.0, 0.0, 0.0], rcs=50.0)])
    m = pipeline.channel_moments(scn, realizations=4)
    p = scn.num_waveform_samples
    assert m.waveform_len == p == 5
    np.testing.assert_array_equal(m.clutter_plus_noise, m.clutter_plus_noise.conj().T)
    assert np.diag(m.clutter_plus_noise).real.min() >= 0.5 - 1e-12
    with pytest.raises(ConfigurationError):
        pipeline.channel_moments(tiny_scenario())   # no targets


def test_clutter_taps_beyond_complex64_are_a_configuration_error():
    """A discrete whose tap overflows complex64 in the moment rows is
    rejected, as in `synthesize_ir`, not summed into an inf moment."""
    scn = tiny_scenario(
        targets=[TargetSpec(position=[900.0, 600.0, 0.0], velocity=[10.0, 0.0, 0.0],
                            rcs=100.0)],
        discretes=[DiscreteSpec(position=[700.0, 600.0, 5.0], rcs=1e120)])
    with pytest.raises(ConfigurationError, match="clutter tap"):
        pipeline.channel_moments(scn, realizations=4)


def half_water_cover():
    classes = np.full((40, 40), WATER, dtype=np.int64)
    classes[:20, :] = URBAN            # northern half is land
    return ClassGrid(classes=classes, cell_size=30.0)


EXTRA_TX = TransmitterSpec(position=[300.0, 100.0, 400.0], velocity=[15.0, 0.0, 0.0])


@pytest.mark.parametrize("cpi, options", [
    (0, {}),
    (0, dict(clutter_doppler_std_hz=40.0)),
    (0, dict(rx_position=np.array([100.0, 300.0, 250.0]),
             rx_velocity=np.array([0.0, 10.0, 0.0]))),
    (0, dict(buildings=BuildingGrid(origin=np.array([600.0, 540.0]), rows=1, cols=2,
                                    footprint=30.0, height=9.0))),
    (1, {}),
    (0, dict(landcover=half_water_cover(), wind_speed_mps=12.0, extra_tx=True)),
    (1, dict(landcover=half_water_cover(), wind_speed_mps=12.0, extra_tx=True)),
], ids=["defaults", "jitter", "bistatic", "buildings", "cpi1", "wind-extra-tx",
        "wind-extra-tx-cpi1"])
def test_mimo_transmitter_zero_matches_simulate_cpi(cpi, options):
    """MIMO transmitter 0 carries exactly the single-transmitter
    pipeline's clutter and target channels, and its cube alone is the
    pipeline's noisy cube byte for byte, under each scenario option,
    not only at the defaults; the other transmitters see other
    channels."""
    options = dict(options)
    mimo_tx = [TransmitterSpec(position=[100.0, 900.0, 300.0], velocity=[0.0, 25.0, 0.0])]
    if options.pop("extra_tx", False):
        mimo_tx.append(EXTRA_TX)
    scn = tiny_scenario(
        targets=[TargetSpec(position=[900.0, 600.0, 0.0],
                            velocity=[10.0, 0.0, 0.0], rcs=50.0)],
        mimo_tx=mimo_tx, noise_power=0.3, **options)
    scene = pipeline.build_scene(scn)
    irs = pipeline.mimo_irs(scn, scene, cpi=cpi)
    assert len(irs) == 1 + len(mimo_tx)
    wf = pipeline.default_waveform(scn)
    result = pipeline.simulate_cpi(scn, scene, cpi, wf)
    assert np.any(result.clutter_ir.taps) and np.any(result.target_ir.taps)
    assert len(irs[0]) == 2
    for got, want in zip(irs[0], (result.clutter_ir, result.target_ir)):
        assert got.support.tobytes() == want.support.tobytes()
        assert got.taps.tobytes() == want.taps.tobytes()
    cube = rxsim.assemble_cube([(irs[0], wf)], scn.noise_power, scn.seed,
                               carrier_hz=scn.carrier_hz, cpi_index=cpi)
    assert cube.samples.tobytes() == result.cube.samples.tobytes()
    assert not np.array_equal(irs[1][0].dense(), irs[0][0].dense())
    if scn.wind_speed_mps > 0.0:
        # the sea modulation really reaches the MIMO channel
        calm = dataclasses.replace(scn, wind_speed_mps=0.0)
        calm_irs = pipeline.mimo_irs(calm, pipeline.build_scene(calm), cpi=cpi)
        assert not np.array_equal(calm_irs[0][0].dense(), irs[0][0].dense())


def test_cpi_threads_on_a_one_thread_pool_keep_the_serial_bytes(monkeypatch):
    """Stress: three caller threads each simulate one CPI of a shared
    scene on a one-thread pool while line of sight, the Philox draws,
    the sea surface, tap accumulation and cube assembly each split
    their work four ways into small spans, chunks and batches, with a
    short switch interval.  The threads finish, so no pool task waits
    on another, not even a sea chunk whose draws ask for blocks; the
    shared scene's grid is fresh, so they race to build its
    `los_bounds`; and every CPI keeps the serial run's bytes."""
    heights = ridge_heights(40, 30.0, crest=150.0)
    scn = tiny_scenario(dem=ElevationGrid(heights=heights, cell_size=30.0),
                        landcover=half_water_cover(), wind_speed_mps=12.0,
                        noise_power=1e-19, num_cpis=3)
    serial = pipeline.simulate_scenario(scn)
    shared = dataclasses.replace(scn, dem=ElevationGrid(heights=heights, cell_size=30.0))
    scene = pipeline.build_scene(shared)
    waveform = pipeline.default_waveform(shared)
    splits = collections.Counter()

    def counting(module):
        def run(task, count):
            splits[module.__name__] = max(splits[module.__name__], count)
            return workers.run_blocks(task, count)
        return run

    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(workers, "_pool", pool)
    monkeypatch.setattr(workers, "cpu_count", lambda: 4)
    monkeypatch.setattr(terrain, "LOS_SPAN", 7)
    monkeypatch.setattr(seeding, "PHILOX_CHUNK", 64)
    # a sea row chunk spans four Philox chunks, so a sea chunk on the
    # pool asks for blocks of its own
    monkeypatch.setattr(ocean, "_CHUNK_BLOCKS", 256)
    monkeypatch.setattr(channel, "_TAP_BATCH", 16)
    pooled_modules = (terrain, seeding, ocean, channel, rxsim)
    for module in pooled_modules:
        monkeypatch.setattr(module, "run_blocks", counting(module))
    callers = ThreadPoolExecutor(3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        futures = [callers.submit(pipeline.simulate_cpi, shared, scene, c, waveform)
                   for c in range(scn.num_cpis)]
        pooled = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
        # without waiting; after a deadlock, `result` has raised, but the
        # blocked pool thread still holds the interpreter at exit
        callers.shutdown(wait=False)
        pool.shutdown(wait=False, cancel_futures=True)
    assert min(splits[m.__name__] for m in pooled_modules) >= 2
    for a, b in zip(serial.results, pooled, strict=True):
        assert a.cube.samples.tobytes() == b.cube.samples.tobytes()
        assert a.clutter_ir.taps.tobytes() == b.clutter_ir.taps.tobytes()


def test_a_block_runs_the_blocks_it_asks_for_on_its_own_thread(monkeypatch):
    """Blocks asked for inside a block, the caller's or a pool task's,
    run inline on that block's thread, so a task never waits on the
    pool, even on a one-thread pool that is busy running it; after the
    outer call, the caller's blocks split again."""
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(workers, "_pool", pool)
    monkeypatch.setattr(workers, "cpu_count", lambda: 2)

    def inner(items):
        return threading.get_ident(), list(items)

    def outer(blocks):
        return [(threading.get_ident(), workers.run_blocks(inner, 3)) for _ in blocks]

    try:
        [(caller, caller_inner)], [(task, task_inner)] = workers.run_blocks(outer, 2)
        again = workers.run_blocks(inner, 3)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    assert caller == threading.get_ident() != task
    assert caller_inner == [(caller, [0, 1, 2])]
    assert task_inner == [(task, [0, 1, 2])]
    assert again == [(caller, [0, 2]), (task, [1])]


def test_empty_scenario_rejected():
    with pytest.raises(ConfigurationError):
        pipeline.simulate_scenario(tiny_scenario(dem=None))


# --- LOS gating against the all-patch budget ----------------------------------

def all_patch_budget(scn, scene, tx, rx, array, timing):
    """The link budget with every scatterer's rays marched and the
    shadow and window masks applied last; the oracle for the gated
    `patch_budget`."""
    n_disc = scene.num_discretes
    facets = scene.patches[:len(scene.patches) - n_disc]
    centers = scene.patches.centers
    d_tx = centers - tx.position
    d_rx = centers - rx.position
    r_tx = np.linalg.norm(d_tx, axis=1)
    r_rx = np.linalg.norm(d_rx, axis=1)
    dirs_tx = d_tx / r_tx[:, None]
    dirs_rx = d_rx / r_rx[:, None]

    graz = grazing_angles(facets, tx.position)
    sigma0 = scn.table().sigma0_many(facets.classes, scn.band, np.clip(graz, 0.0, np.pi / 2))
    sigma0 = np.where(graz > 0.0, sigma0, 0.0)

    dem = scene.dem
    on_raster = dem.within_extent(centers[:, 0], centers[:, 1])

    def los_from(observer):
        return np.array([not inside or line_of_sight(dem, observer, c,
                                                     clearance=LOS_CLEARANCE_M)
                         for c, inside in zip(centers, on_raster)])

    vis_tx = los_from(tx.position)
    monostatic = np.array_equal(tx.position, rx.position)
    both_clear = vis_tx & (vis_tx if monostatic else los_from(rx.position))
    tap = np.round((r_tx + r_rx) / SPEED_OF_LIGHT * timing.sample_rate)
    in_window = (tap >= 0) & (tap < timing.num_taps)
    visible = both_clear & in_window

    tx_gain = uniform_pattern_gains(array, dirs_tx)
    cos_rx = dirs_rx @ np.asarray(array.boresight, dtype=np.float64)
    rx_gain = np.where(cos_rx > 0.0, np.maximum(cos_rx, 0.0) ** array.cosine_exponent, 0.0)
    sigma0 = np.concatenate([sigma0, scene.discrete_rcs])
    areas = np.concatenate([facets.areas, np.ones(n_disc)])
    args = (sigma0, areas, tx_gain, rx_gain, scn.wavelength, r_tx, r_rx)
    unshadowed = patch_power_scales(*args)
    return SimpleNamespace(gains=np.where(visible, unshadowed, 0.0), unshadowed=unshadowed,
                           directions=dirs_rx, in_window=in_window,
                           on_raster=on_raster, vis_tx=vis_tx, both_clear=both_clear)


def all_patch_clutter(scn, scene, cpi, timing, budget):
    """Clutter IR drawn over every scatterer, zero gains included, with
    the sea modulation drawn for every water patch."""
    tx, rx = pipeline.platform_states(scn, cpi)
    model = StochasticModel(seed=scn.seed, doppler_std_hz=scn.clutter_doppler_std_hz,
                            deterministic_phase=scn.deterministic_clutter_phase)
    responses = patch_responses(scene.patches, budget.gains,
                                tx, rx, scn.wavelength, model, realization=cpi)
    modulation = None
    water = np.flatnonzero(scene.water)
    if scn.wind_speed_mps > 0.0 and water.size:
        modulation = (water, *pulse_modulation(scene.patches.ids[water], scn.wind_speed_mps,
                                               scn.num_pulses, scn.prf_hz, scn.wavelength,
                                               derive_seed(scn.seed, STREAM_OCEAN, cpi)))
    return synthesize_ir(responses, budget.directions, pipeline.receive_array(scn),
                         timing, modulation=modulation)


def bistatic_walled_scenario():
    heights = np.zeros((40, 40))
    heights[:, 16:18] = 200.0          # north-south wall near x = 500
    return tiny_scenario(
        dem=ElevationGrid(heights=heights, cell_size=30.0),
        landcover=half_water_cover(),
        tx_position=np.array([100.0, 600.0, 150.0]),
        rx_position=np.array([300.0, 200.0, 120.0]),
        rx_velocity=np.array([5.0, 0.0, 0.0]),
        clutter_doppler_std_hz=3.0,
        discretes=[DiscreteSpec(position=[300.0, 900.0, 5.0], rcs=500.0),
                   DiscreteSpec(position=[-150.0, 700.0, 5.0], rcs=500.0)],
    )


GATING_CASES = {
    "scenario1-desk": lambda: generate_scenario1(scale=DESK_SCALE, seed=1),
    "tiny-bistatic": bistatic_walled_scenario,
    "scenario2-wind": lambda: dataclasses.replace(
        generate_scenario2(scale=DESK_SCALE, seed=1), wind_speed_mps=12.0),
}


@pytest.mark.parametrize("case", sorted(GATING_CASES))
def test_gated_budget_matches_all_patch_oracle(case, monkeypatch):
    scn = GATING_CASES[case]()
    scene = pipeline.build_scene(scn)
    timing = scn.timing()
    tx, rx = pipeline.platform_states(scn, 0)
    array = pipeline.receive_array(scn)
    want = all_patch_budget(scn, scene, tx, rx, array, timing)
    want_ir = all_patch_clutter(scn, scene, 0, timing, want)
    got = pipeline.patch_budget(scn, scene, tx, rx, array, timing)

    rays = collections.Counter()
    drawn = []
    sea_rows = []

    def counting_los(dem, observer, points, **kw):
        rays["tx" if np.array_equal(observer, tx.position) else "rx"] += len(points)
        return lines_of_sight(dem, observer, points, **kw)

    def counting_responses(patches, *args, **kw):
        drawn.append(len(patches))
        return patch_responses(patches, *args, **kw)

    def counting_modulation(ids, *args, **kw):
        sea_rows.append(len(ids))
        return pulse_modulation(ids, *args, **kw)

    def capturing_ir(*args, **kw):
        modulations.append(kw["modulation"])
        return synthesize_ir(*args, **kw)

    modulations = []
    monkeypatch.setattr(pipeline, "lines_of_sight", counting_los)
    monkeypatch.setattr(pipeline, "patch_responses", counting_responses)
    monkeypatch.setattr(pipeline, "pulse_modulation", counting_modulation)
    monkeypatch.setattr(pipeline, "synthesize_ir", capturing_ir)
    ir = pipeline.synthesize_clutter(scn, scene, 0, timing)

    assert got.gains.tobytes() == want.gains.tobytes()
    assert ir.taps.tobytes() == want_ir.taps.tobytes()
    assert not got.gains[~got.los_tested].any()

    # rays are marched for exactly the in-window candidates with a
    # non-zero unshadowed gain; the rx ray only where the tx ray is clear
    candidates = want.in_window & (want.unshadowed != 0.0)
    np.testing.assert_array_equal(got.los_tested, candidates)
    marched = candidates & want.on_raster
    assert rays["tx"] == np.count_nonzero(marched)
    monostatic = np.array_equal(tx.position, rx.position)
    assert rays["rx"] == (0 if monostatic else np.count_nonzero(marched & want.vis_tx))
    assert rays["tx"] < len(want.gains)

    live = np.count_nonzero(got.gains)
    assert drawn == [live] and 0 < live < len(want.gains)
    live_water = np.count_nonzero(got.gains[scene.water])
    if scn.wind_speed_mps > 0.0:
        assert sea_rows == [live_water] and live_water > 0
        # the modulation covers the live water rows only, not every
        # live scatterer
        (rows, phase, amp), = modulations
        assert rows.shape == (live_water,)
        assert phase.shape == amp.shape == (live_water, scn.num_pulses)
        np.testing.assert_array_equal(rows, np.flatnonzero(scene.water[got.gains != 0.0]))
    else:
        assert sea_rows == [] and modulations == [None]


def moment_row_oracle(scn, scene, cpi, pulse, channel, k):
    """Row [channel, pulse] of the clutter IR of moment realization k, by
    the full path: patch_budget -> patch_responses -> synthesize_ir."""
    timing = scn.timing()
    tx, rx = pipeline.platform_states(scn, cpi)
    array = pipeline.receive_array(scn)
    budget = pipeline.patch_budget(scn, scene, tx, rx, array, timing)
    live = np.flatnonzero(budget.gains)
    model = StochasticModel(seed=scn.seed, doppler_std_hz=scn.clutter_doppler_std_hz,
                            deterministic_phase=scn.deterministic_clutter_phase)
    responses = patch_responses(scene.patches[live], budget.gains[live], tx, rx,
                                scn.wavelength, model,
                                realization=pipeline.MOMENT_REALIZATION_BASE + k)
    modulation = None
    water = np.flatnonzero(scene.water[live])
    if scn.wind_speed_mps > 0.0 and water.size:
        phase, amp = pulse_modulation(scene.patches.ids[live[water]], scn.wind_speed_mps,
                                      scn.num_pulses, scn.prf_hz, scn.wavelength,
                                      derive_seed(scn.seed, STREAM_OCEAN, cpi))
        modulation = (water, phase, amp)
    ir = synthesize_ir(responses, budget.directions[live], array, timing,
                       modulation=modulation)
    return ir.dense()[channel, pulse]


ROW_CASES = {
    "defaults": (lambda: generate_scenario1(scale=DESK_SCALE, seed=1), 0),
    "jitter": (lambda: dataclasses.replace(generate_scenario1(scale=DESK_SCALE, seed=1),
                                           clutter_doppler_std_hz=40.0), 0),
    "deterministic-jitter": (lambda: dataclasses.replace(
        generate_scenario1(scale=DESK_SCALE, seed=1), deterministic_clutter_phase=True,
        clutter_doppler_std_hz=40.0), 0),
    "deterministic": (lambda: dataclasses.replace(
        generate_scenario1(scale=DESK_SCALE, seed=1), deterministic_clutter_phase=True), 0),
    "scenario2-wind": (lambda: dataclasses.replace(
        generate_scenario2(scale=DESK_SCALE, seed=1), wind_speed_mps=12.0), 0),
    "scenario2-wind-jitter": (lambda: dataclasses.replace(
        generate_scenario2(scale=DESK_SCALE, seed=2), wind_speed_mps=12.0,
        clutter_doppler_std_hz=20.0), 0),
    "bistatic": (bistatic_walled_scenario, 0),
    "cpi1": (lambda: generate_scenario1(scale=DESK_SCALE, seed=1), 1),
}


@pytest.mark.parametrize("batch", [pipeline.MOMENT_BATCH, 2000])
@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_clutter_tap_rows_match_the_full_ir(case, batch, monkeypatch):
    """The row sampler gives row [channel, pulse] of the full IR of
    each realization, at the first, a middle and the last pulse and the
    first and last channel, whether a batch holds every realization or
    a few.  The rows are byte-equal: each tap sums in another order
    than the oracle's GEMM, but in complex128, before the complex64
    cast."""
    monkeypatch.setattr(pipeline, "MOMENT_BATCH", batch)
    make, cpi = ROW_CASES[case]
    scn = make()
    scene = pipeline.build_scene(scn)
    realizations = 3
    for pulse in (0, scn.num_pulses // 2, scn.num_pulses - 1):
        for channel in (0, scn.num_channels - 1):
            realize = pipeline.clutter_tap_rows(scn, scene, cpi, pulse, channel,
                                                realizations)
            for k in range(realizations):
                got = realize(k)
                want = moment_row_oracle(scn, scene, cpi, pulse, channel, k)
                assert got.dtype == np.complex64 and np.count_nonzero(want) > 0
                np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("batch, fewer, more", [(1 << 12, 8, 64), (pipeline.MOMENT_BATCH, 64, 256)],
                         ids=["small-batch", "shipped-batch"])
def test_channel_moments_memory_does_not_grow_with_realizations(monkeypatch, batch,
                                                                fewer, more):
    """Once the realizations fill a batch, nothing grows with their
    count: the traced peak of `channel_moments` at `more` realizations
    is within 10% of the peak at `fewer`.  Both counts span more than
    one batch of the desk scene's ~1,200 live scatterers (at the
    shipped batch, 8 realizations would not fill one)."""
    monkeypatch.setattr(pipeline, "MOMENT_BATCH", batch)
    scn = generate_scenario1(scale=DESK_SCALE, seed=1)
    scene = pipeline.build_scene(scn)
    pipeline.channel_moments(scn, scene, realizations=1)   # the grid's LOS bounds, the pool
    peaks = []
    for realizations in (fewer, more):
        tracemalloc.start()
        try:
            pipeline.channel_moments(scn, scene, realizations=realizations)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_phase_ramp_column_equals_every_column_of_phase_ramps():
    rng = np.random.default_rng(5)
    theta = np.concatenate([rng.uniform(-np.pi, np.pi, 500), rng.normal(0.0, 50.0, 500),
                            [0.0, np.pi, -np.pi / 3, 1e-300]])
    ramps = phase_ramps(theta, 131)
    for k in range(131):
        np.testing.assert_array_equal(phase_ramp_column(theta, k), ramps[:, k])
    # a batch of rows keeps each row's bytes
    np.testing.assert_array_equal(phase_ramp_column(theta.reshape(4, -1)[:, ::-1], 77),
                                  ramps[:, 77].reshape(4, -1)[:, ::-1])


def test_patch_budget_logs_per_cpi_counts(caplog):
    scn = bistatic_walled_scenario()
    scene = pipeline.build_scene(scn)
    tx, rx = pipeline.platform_states(scn, 0)
    arr = pipeline.receive_array(scn)
    timing = scn.timing()
    want = all_patch_budget(scn, scene, tx, rx, arr, timing)
    with caplog.at_level(logging.DEBUG, logger="rfclutter.pipeline"):
        got = pipeline.patch_budget(scn, scene, tx, rx, arr, timing=timing)
    (msg,) = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    n = len(got.gains)
    in_window = np.count_nonzero(want.in_window)
    tested = np.count_nonzero(got.los_tested)
    visible = np.count_nonzero(got.gains)
    assert n > in_window > tested > visible > 0
    assert msg == (f"link budget: {n} patches, {in_window} in window, "
                   f"{tested} LOS-tested, {visible} visible")


def oracle_visibility(scn):
    """The all-patch both-path visibility of the terrain patches at
    CPI 0, as a north-up raster."""
    scene = pipeline.build_scene(scn)
    tx, rx = pipeline.platform_states(scn, 0)
    oracle = all_patch_budget(scn, scene, tx, rx, pipeline.receive_array(scn),
                              scn.timing())
    n = scene.num_terrain_patches
    return oracle.both_clear[:n].reshape(scene.grid_shape)[::-1]


@pytest.mark.parametrize("make", [lambda: generate_scenario1(scale=DESK_SCALE, seed=1),
                                  lambda: generate_scenario2(scale=0.25, seed=1)],
                         ids=["scenario1-desk", "scenario2-quarter"])
def test_lines_of_sight_matches_reference_on_every_patch(make):
    """The batched visibility routine against the scalar reference on
    every scatterer of a preset at CPI 0; the bound is 0 disagreements."""
    scn = make()
    scene = pipeline.build_scene(scn)
    points = scene.patches.centers
    tx, rx = pipeline.platform_states(scn, 0)
    for observer in {tuple(tx.position), tuple(rx.position)}:
        got = lines_of_sight(scene.dem, observer, points)
        want = [line_of_sight(scene.dem, observer, p, clearance=LOS_CLEARANCE_M)
                for p in points]
        assert np.count_nonzero(got != want) == 0
        assert 0 < np.count_nonzero(~got) < len(points)


def test_gain_map_keeps_full_visibility(tmp_path):
    scn = generate_scenario1(scale=DESK_SCALE, seed=1)
    gm = pipeline.gain_map(scn)
    want = oracle_visibility(scn)
    np.testing.assert_array_equal(gm.visible, want)
    # the map reports shadow, and the visibility of zero-gain patches
    # that the gated budget never marches
    assert not want.all()
    assert want[gm.gains_db <= pipeline.GAIN_MAP_FLOOR_DB].any()

    assert main(["los-map", "--preset", "scenario1", "--out", str(tmp_path)]) == 0
    text = io.StringIO(newline="")
    w = csv.writer(text)
    w.writerow(["row", "col", "visible"])
    for r in range(want.shape[0]):
        for c in range(want.shape[1]):
            w.writerow([r, c, int(want[r, c])])
    assert (tmp_path / "los_map.csv").read_bytes() == text.getvalue().encode("utf-8")

    bistatic = bistatic_walled_scenario()
    np.testing.assert_array_equal(pipeline.gain_map(bistatic).visible,
                                  oracle_visibility(bistatic))


@pytest.mark.parametrize("make", [generate_scenario1, generate_scenario2])
def test_gain_map_sums_every_scatterer_into_its_cell(make):
    """Roofs and discretes add their linear gain to the terrain cell
    that holds them, so the map carries the whole budget."""
    scn = make(scale=DESK_SCALE, seed=1)
    scene = pipeline.build_scene(scn)
    tx, rx = pipeline.platform_states(scn, 0)
    budget = pipeline.patch_budget(scn, scene, tx, rx, pipeline.receive_array(scn))
    gm = pipeline.gain_map(scn)
    linear = np.where(gm.gains_db > pipeline.GAIN_MAP_FLOOR_DB, 10.0 ** (gm.gains_db / 10.0), 0.0)
    assert np.count_nonzero(budget.gains[scene.num_terrain_patches:]) > 0
    assert linear.sum() == pytest.approx(budget.gains.sum(), rel=1e-12)


def test_gain_map_shows_the_buildings():
    flat = pipeline.gain_map(generate_scenario1(scale=DESK_SCALE, seed=1))
    built = pipeline.gain_map(generate_scenario2(scale=DESK_SCALE, seed=1))
    assert np.any(built.gains_db > flat.gains_db)


def test_clutter_draws_build_no_per_scatterer_generator(monkeypatch):
    """With wind and Doppler jitter on, every per-scatterer draw comes
    from the vector Philox: no rfclutter module may build a
    `derive_rng` generator for clutter synthesis.  Receiver noise still
    builds its per-CPI generators, which shows the patch is in effect."""
    import rfclutter.seeding

    def forbidden(*keys):
        raise AssertionError(f"derive_rng{keys}")

    patched = [m for name, m in sys.modules.items()
               if name.startswith("rfclutter") and hasattr(m, "derive_rng")]
    assert rfclutter.seeding in patched
    for module in patched:
        monkeypatch.setattr(module, "derive_rng", forbidden)
    scn = dataclasses.replace(generate_scenario2(scale=DESK_SCALE, seed=1),
                              wind_speed_mps=12.0, clutter_doppler_std_hz=2.0)
    scene = pipeline.build_scene(scn)
    ir = pipeline.synthesize_clutter(scn, scene, 0, scn.timing())
    assert np.count_nonzero(ir.taps) > 0
    with pytest.raises(AssertionError, match="derive_rng"):
        pipeline.simulate_cpi(scn, scene, 0, pipeline.default_waveform(scn))


def test_off_raster_transmitter_simulates():
    base = generate_scenario1(scale=DESK_SCALE, seed=1)
    scn = dataclasses.replace(base, tx_position=np.array([3000.0, -2000.0, 3000.0]),
                              num_cpis=1)
    assert not scn.dem.within_extent(3000.0, -2000.0)
    run = pipeline.simulate_scenario(scn)
    (result,) = run.results
    assert np.count_nonzero(result.clutter_ir.taps) > 0
    assert np.count_nonzero(result.target_ir.taps) > 0
    assert np.all(np.isfinite(result.cube.samples))


# --- point targets through the shared link budget ----------------------------

def point_target_scenario(tx_position, tx_velocity, target_position, rcs, **overrides):
    """Terrain-free monostatic scenario: one receive channel, one static
    target."""
    base = dict(carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2000.0, num_pulses=4,
                num_channels=1, pulse_duration_s=1e-6,
                tx_position=np.asarray(tx_position, float),
                tx_velocity=np.asarray(tx_velocity, float),
                targets=[TargetSpec(position=target_position, velocity=[0.0, 0.0, 0.0],
                                    rcs=rcs)])
    base.update(overrides)
    return Scenario(**base)


def test_target_ir_closed_form_tap():
    scn = point_target_scenario((0, 0, 1000), (0, 60, 0), [2997.0, 0.0, 0.0], 10.0)
    ir = pipeline.synthesize_targets(scn, None, 0, scn.timing())
    r = float(np.linalg.norm(scn.targets[0].position - scn.tx_position))
    tap = round(2.0 * r / SPEED_OF_LIGHT * scn.sample_rate)
    profile = np.abs(ir.dense()[0, 0, :])
    assert int(np.argmax(profile)) == tap
    # range equation with sigma0 * area -> rcs; the single element's
    # cos^1 pattern (boresight +x) applies on transmit and on receive
    cos_off = 2997.0 / r
    g = cos_off ** 2 * scn.wavelength ** 2 * 10.0 / ((4 * math.pi) ** 3 * r ** 4)
    assert profile[tap] == pytest.approx(math.sqrt(g), rel=1e-6)


def test_target_ir_doppler_ramp():
    scn = point_target_scenario((0, 0, 0), (0, 80, 0), [0.0, 6000.0, 0.0], 5.0,
                                num_pulses=16, boresight=np.array([0.0, 1.0, 0.0]),
                                array_axis=np.array([1.0, 0.0, 0.0]))
    ir = pipeline.synthesize_targets(scn, None, 0, scn.timing())
    tap = round(2.0 * 6000.0 / SPEED_OF_LIGHT * scn.sample_rate)
    series = ir.dense()[0, :, tap].astype(np.complex128)
    assert np.all(series != 0)
    # closing at 80 m/s -> fd = 2 * 80 / lambda; check pulse-to-pulse rotation
    fd = 2.0 * 80.0 / scn.wavelength
    steps = series[1:] / series[:-1]
    np.testing.assert_allclose(steps, np.exp(2j * np.pi * fd / scn.prf_hz), rtol=1e-5)


def test_target_ir_rejects_negative_rcs():
    scn = point_target_scenario((0, 0, 100), (0, 0, 0), [100.0, 0.0, 0.0], 1.0)
    object.__setattr__(scn.targets[0], "rcs", -1.0)    # past TargetSpec's own check
    with pytest.raises(ConfigurationError):
        pipeline.synthesize_targets(scn, None, 0, scn.timing())


def test_target_taps_beyond_complex64_are_a_configuration_error():
    """An rcs whose tap does not fit in complex64 is refused, not
    stored as an inf tap."""
    scn = point_target_scenario((0, 0, 1000), (0, 60, 0), [2997.0, 0.0, 0.0], 1e120)
    with pytest.raises(ConfigurationError, match="complex64"):
        pipeline.synthesize_targets(scn, None, 0, scn.timing())


def test_target_on_the_platform_is_a_configuration_error():
    on_tx = TargetSpec(position=[100.0, 600.0, 300.0], velocity=[0.0, 0.0, 0.0], rcs=10.0)
    scn = tiny_scenario(targets=[on_tx], num_cpis=1)
    with pytest.raises(ConfigurationError, match="coincides"):
        pipeline.simulate_scenario(scn)
    with pytest.raises(ConfigurationError, match="coincides"):
        pipeline.mimo_irs(scn, None, 0)


# --- built-in scene structure (desk scale) ------------------------------------

def expected_bins(scn, target_index, cpi):
    tx, rx = pipeline.platform_states(scn, cpi)
    pos, vel, _ = pipeline.target_states(scn, cpi)[target_index]
    delay, doppler = bistatic_delay_doppler(pos, vel, tx, rx, scn.wavelength)
    r_bin = range_bin_for(delay, scn.sample_rate)
    d_bin = doppler_bin_for(doppler, scn.prf_hz, scn.num_pulses)
    return r_bin, d_bin


def cell_over_median(map_db, r_bin, d_bin):
    """Strongest map value in the 3 x 3 neighborhood (Doppler wraps),
    relative to the map median."""
    m, r = map_db.shape
    vals = [map_db[(d_bin + dd) % m, r_bin + dr]
            for dd in (-1, 0, 1) for dr in (-1, 0, 1)
            if 0 <= r_bin + dr < r]
    return max(vals) - float(np.median(map_db))


def test_scenario1_weak_mover_emerges_across_cpis():
    """The low-RCS mover starts inside the receive pattern null and the
    advancing platform sweeps the beam onto it by the last CPI."""
    scn = generate_scenario1(scale=DESK_SCALE, seed=1)
    run = pipeline.simulate_scenario(scn)
    weights = np.ones(scn.num_channels)
    weak = 3    # fourth target

    r0, d0 = expected_bins(scn, weak, 0)
    map0, _ = range_doppler_map(run.results[0].cube, run.waveform, weights)
    first = cell_over_median(map0, r0, d0)

    last_cpi = scn.num_cpis - 1
    r1, d1 = expected_bins(scn, weak, last_cpi)
    map1, _ = range_doppler_map(run.results[last_cpi].cube, run.waveform, weights)
    final = cell_over_median(map1, r1, d1)

    assert first <= 15.0
    assert final >= 25.0
    assert final > first + 10.0


def test_scenario2_buildings_add_clutter_power():
    s1 = generate_scenario1(scale=DESK_SCALE, seed=1)
    s2 = generate_scenario2(scale=DESK_SCALE, seed=1)

    def total_gain(scn):
        scene = pipeline.build_scene(scn)
        tx, rx = pipeline.platform_states(scn, 0)
        arr = pipeline.receive_array(scn)
        return pipeline.patch_budget(scn, scene, tx, rx, arr).gains.sum()

    g1, g2 = total_gain(s1), total_gain(s2)
    assert g2 > 2.0 * g1       # the shoreline block dominates the budget
