"""End-to-end scenario simulation.

Turns a Scenario into, per CPI: a clutter impulse response (terrain
patches, buildings, stationary discretes), a target impulse response
(the declared movers), and a receiver data cube.  Geometry, visibility,
reflectivity, and the range-equation budget all happen here; the
numeric kernels live in the channel/rxsim modules.

CPIs are simulated one after another with per-CPI derived random
streams; the heavy stages inside a CPI share the process's worker pool
(`workers`), so a run is byte-identical at any core count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import scattering
from .antenna import (ArrayGeometry, element_gains, phase_ramp_column,
                      spatial_steering_column, uniform_pattern_gains)
from .channel import (ChannelImpulseResponse, RadarTiming, SPEED_OF_LIGHT,
                      StochasticModel, bistatic_delays_dopplers, drawn_amplitudes_dopplers,
                      ensemble_second_moment, patch_responses, scatterer_responses,
                      synthesize_ir)
from .cofar import ChannelMoments
from .errors import ConfigurationError
from .ocean import OceanState, pulse_modulation
from .rxsim import DataCube, simulate_cube
from .scattering import patch_power_scales
from .scenario import Scenario
from .seeding import (STREAM_CLUTTER, STREAM_MIMO_CODE, STREAM_OCEAN, derive_seed, philox_key,
                      philox_words)
from .terrain import (ClassGrid, ElevationGrid, PatchArrays, PlatformState,
                      build_patch_grid, grazing_angles, lines_of_sight,
                      patch_grid_shape)
from .waveform import Waveform, lfm

logger = logging.getLogger(__name__)

# Rays are lifted this much (m) before the terrain comparison so patch
# centers sitting exactly on the surface don't self-occlude.
LOS_CLEARANCE_M = 1.0

# Realization indices >= this belong to moment estimation, so training
# draws never reuse the phases of the exported CPIs.
MOMENT_REALIZATION_BASE = 1_000_000

# Philox counters (or taps) per batch of moment realizations; fixes the
# row sampler's working memory whatever the realization count.
MOMENT_BATCH = 1 << 16


@dataclass
class SceneModel:
    """Scenario geometry resolved into scatterers.

    `patches` holds every scatterer in id order: the terrain grid
    (`grid_shape` rows south to north by columns west to east, row
    major), then one roof patch per building, then one point scatterer
    per stationary discrete, whose cross sections are `discrete_rcs`.
    The DEM includes the building extrusions so visibility rays see
    them.
    """

    dem: ElevationGrid
    landcover: ClassGrid
    patches: PatchArrays
    grid_shape: tuple[int, int]
    discrete_rcs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        self.water: np.ndarray = self.patches.classes == scattering.WATER

    @property
    def num_terrain_patches(self) -> int:
        return self.grid_shape[0] * self.grid_shape[1]

    @property
    def num_discretes(self) -> int:
        return len(self.discrete_rcs)

    @property
    def num_responses(self) -> int:
        return len(self.patches)


def _extrude_buildings(dem: ElevationGrid, scn: Scenario) -> ElevationGrid:
    """Raise the DEM cells under each building by the building height."""
    b = scn.buildings
    heights = dem.heights.copy()
    half = b.footprint / 2.0
    cell = dem.cell_size
    for cx, cy in b.centers():
        c0 = max(0, int(np.ceil((cx - half) / cell - 0.5)))
        c1 = min(dem.ncols - 1, int(np.floor((cx + half) / cell - 0.5)))
        r_from_south0 = max(0, int(np.ceil((cy - half) / cell - 0.5)))
        r_from_south1 = min(dem.nrows - 1, int(np.floor((cy + half) / cell - 0.5)))
        if c1 < c0 or r_from_south1 < r_from_south0:
            continue
        rows = dem.nrows - 1 - np.arange(r_from_south0, r_from_south1 + 1)
        heights[np.ix_(rows, np.arange(c0, c1 + 1))] += b.height
    heights.setflags(write=False)            # the grid adopts it without a copy
    return ElevationGrid(heights=heights, cell_size=dem.cell_size,
                         origin_lat=dem.origin_lat, origin_lon=dem.origin_lon)


def build_scene(scn: Scenario) -> SceneModel | None:
    """Resolve the scenario's scene content, or None for target-only runs."""
    if scn.dem is None:
        if scn.buildings is not None or scn.discretes:
            raise ConfigurationError("buildings and discretes need a terrain raster")
        return None
    dem = scn.dem
    landcover = scn.landcover
    if landcover is None:
        landcover = ClassGrid(classes=np.full(dem.heights.shape, scattering.GRASS,
                                              dtype=np.int64),
                              cell_size=dem.cell_size)

    ground = dem
    if scn.buildings is not None:
        dem = _extrude_buildings(dem, scn)

    grid = build_patch_grid(dem, landcover, scn.patch_size_m)
    centers, areas, classes = [grid.centers], [grid.areas], [grid.classes]
    n_roof = 0
    if scn.buildings is not None:
        b = scn.buildings
        xy = b.centers()
        n_roof = len(xy)
        centers.append(np.column_stack([xy, ground.heights_at(xy[:, 0], xy[:, 1]) + b.height]))
        areas.append(np.full(n_roof, b.footprint ** 2))
        classes.append(np.full(n_roof, b.landcover_class))
    n_disc = len(scn.discretes)
    centers.append(np.reshape([d.position for d in scn.discretes], (n_disc, 3)))
    areas.append(np.ones(n_disc))
    classes.append(np.full(n_disc, scattering.URBAN))
    # roofs and discretes face straight up
    up = np.zeros((n_roof + n_disc, 3))
    up[:, 2] = 1.0
    centers = np.vstack(centers)
    patches = PatchArrays(centers=centers, normals=np.vstack([grid.normals, up]),
                          areas=np.concatenate(areas), classes=np.concatenate(classes),
                          ids=np.arange(len(centers)))
    return SceneModel(dem=dem, landcover=landcover, patches=patches,
                      grid_shape=patch_grid_shape(dem, scn.patch_size_m),
                      discrete_rcs=np.array([d.rcs for d in scn.discretes]))


def platform_states(scn: Scenario, cpi: int) -> tuple[PlatformState, PlatformState]:
    """Transmit and receive platform states at the start of a CPI."""
    t = cpi * scn.cpi_interval
    tx = PlatformState(position=scn.tx_position + scn.tx_velocity * t,
                       velocity=scn.tx_velocity.copy())
    if scn.rx_position is None:
        rx = PlatformState(position=tx.position.copy(), velocity=tx.velocity.copy())
    else:
        rx_vel = scn.rx_velocity if scn.rx_velocity is not None else np.zeros(3)
        rx = PlatformState(position=scn.rx_position + rx_vel * t,
                           velocity=rx_vel.copy())
    return tx, rx


def receive_array(scn: Scenario) -> ArrayGeometry:
    spacing = scn.array_spacing_m if scn.array_spacing_m > 0 else scn.wavelength / 2.0
    return ArrayGeometry.ula(scn.num_channels, spacing, scn.wavelength,
                             axis=scn.array_axis, boresight=scn.boresight,
                             cosine_exponent=scn.cosine_exponent)


def _visibility(dem: ElevationGrid, tx_position: np.ndarray,
                rx_position: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Both-path LOS mask from a transmitter and a receiver to many
    points, with the standard clearance.  One `lines_of_sight` call
    covers the transmit rays; a second covers the receive rays of the
    points whose transmit ray is clear, and is skipped when the two
    platforms coincide.  Points outside the raster extent count as
    visible (the terrain can't block what it doesn't cover)."""
    out = ~dem.within_extent(points[:, 0], points[:, 1])
    on = np.flatnonzero(~out)
    clear = lines_of_sight(dem, tx_position, points[on], clearance=LOS_CLEARANCE_M)
    if not np.array_equal(tx_position, rx_position):
        tx_clear = np.flatnonzero(clear)
        clear[tx_clear] = lines_of_sight(dem, rx_position, points[on[tx_clear]],
                                         clearance=LOS_CLEARANCE_M)
    out[on] = clear
    return out


@dataclass
class PatchBudget:
    """Per-scatterer link budget for one CPI, in `SceneModel.patches` order.

    Only scatterers that could contribute are LOS-tested: those with a
    non-zero unshadowed gain and, when a timing is given, a tap inside
    the receive window.  `visible` is True where that test found both
    paths clear, so it marks exactly the scatterers with non-zero
    `gains`; an untested scatterer reads False whatever the terrain.
    `gain_map` completes the mask for its full-raster view.
    """

    gains: np.ndarray           # (n,) two-way power scale G
    directions: np.ndarray      # (n, 3) unit rx -> scatterer
    visible: np.ndarray         # (n,) bool, LOS-tested and both paths clear
    los_tested: np.ndarray      # (n,) bool, the contribution candidates
    grazing: np.ndarray         # (n,) rad, tx side; discretes carry pi/2


def _link_budget(array: ArrayGeometry, tx: PlatformState, rx: PlatformState,
                 points: np.ndarray, sigma0: np.ndarray,
                 areas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unshadowed two-way gains of point scatterers (clutter patches and
    targets alike) by the bistatic range equation.

    Transmit uses the full array pattern with uniform weights, in
    closed form (`uniform_pattern_gains`); receive the shared element
    pattern only (array gain comes from beamforming).  Returns (gains,
    unit rx -> point directions, tx ranges, rx ranges).
    """
    d_tx = points - tx.position
    d_rx = points - rx.position
    r_tx = np.linalg.norm(d_tx, axis=1)
    r_rx = np.linalg.norm(d_rx, axis=1)
    if np.any(r_tx <= 0) or np.any(r_rx <= 0):
        raise ConfigurationError("a platform coincides with a scatterer or target")
    if np.any(sigma0 < 0):
        raise ConfigurationError("scatterer cross sections must be non-negative")
    dirs_tx = d_tx / r_tx[:, None]
    dirs_rx = d_rx / r_rx[:, None]
    tx_gain = uniform_pattern_gains(array, dirs_tx)
    rx_gain = element_gains(array, dirs_rx)
    gains = patch_power_scales(sigma0, areas, tx_gain, rx_gain, array.wavelength,
                               r_tx, r_rx)
    return gains, dirs_rx, r_tx, r_rx


def patch_budget(scn: Scenario, scene: SceneModel, tx: PlatformState,
                 rx: PlatformState, array: ArrayGeometry,
                 timing: RadarTiming | None = None) -> PatchBudget:
    """Range-equation gains for every clutter scatterer at one CPI.

    The cheap factors (reflectivity at the grazing angle, both antenna
    gains, ranges) come first; the line-of-sight rays are marched only
    for scatterers whose unshadowed gain is non-zero.  With `timing`
    given, scatterers whose bistatic delay falls outside the receive
    window are zeroed too and never marched; they could never
    contribute a tap.
    """
    # the discretes, last in id order, are point scatterers with their
    # own cross sections
    facets = scene.patches[:len(scene.patches) - scene.num_discretes]
    graz = grazing_angles(facets, tx.position)
    sigma0 = scn.table().sigma0_many(facets.classes, scn.band, np.clip(graz, 0.0, np.pi / 2))
    sigma0 = np.concatenate([np.where(graz > 0.0, sigma0, 0.0), scene.discrete_rcs])
    graz = np.concatenate([graz, np.full(scene.num_discretes, np.pi / 2)])
    centers = scene.patches.centers
    unshadowed, dirs_rx, r_tx, r_rx = _link_budget(array, tx, rx, centers, sigma0,
                                                   scene.patches.areas)
    in_window = np.ones(len(centers), dtype=bool)
    if timing is not None:
        tap = np.round(((r_tx + r_rx) / SPEED_OF_LIGHT - timing.delay_origin)
                       * timing.sample_rate)
        in_window = (tap >= 0) & (tap < timing.num_taps)
    tested = in_window & (unshadowed != 0.0)
    visible = np.zeros(len(centers), dtype=bool)
    idx = np.flatnonzero(tested)
    visible[idx] = _visibility(scene.dem, tx.position, rx.position, centers[idx])
    gains = np.where(visible, unshadowed, 0.0)
    logger.debug("link budget: %d patches, %d in window, %d LOS-tested, %d visible",
                 len(centers), int(np.count_nonzero(in_window)), idx.size,
                 int(np.count_nonzero(visible)))
    return PatchBudget(gains=gains, directions=dirs_rx, visible=visible,
                       los_tested=tested, grazing=graz)


def _clutter_responses(scn: Scenario, scene: SceneModel, budget: PatchBudget,
                       live: np.ndarray, tx: PlatformState, rx: PlatformState,
                       realization: int, seed: int) -> np.recarray:
    """Responses of the scatterers at indices `live`.  Every draw is
    keyed by patch id, so skipping the zero-gain scatterers leaves the
    others' draws unchanged."""
    return patch_responses(scene.patches[live], budget.gains[live], tx, rx, scn.wavelength,
                           _clutter_model(scn, seed), realization=realization)


def _clutter_model(scn: Scenario, seed: int) -> StochasticModel:
    return StochasticModel(seed=seed, doppler_std_hz=scn.clutter_doppler_std_hz,
                           deterministic_phase=scn.deterministic_clutter_phase)


def _ocean_modulation(scn: Scenario, scene: SceneModel, cpi: int, live: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Per-pulse sea-surface modulation of the live water scatterers, as
    `synthesize_ir`'s (rows, phase, amp): `rows` index `live`, and
    phase (rad) and amp are (len(rows), num_pulses).  None when no live
    scatterer is moving water.  Only the live water patches are drawn;
    each keys its own stream by patch id, so the rows match a draw over
    every water patch."""
    if scn.wind_speed_mps <= 0.0:
        return None
    rows = np.flatnonzero(scene.water[live])
    if rows.size == 0:
        return None
    state = OceanState(ids=scene.patches.ids[live[rows]], wind_speed=scn.wind_speed_mps)
    seed = derive_seed(scn.seed, STREAM_OCEAN, cpi)
    phase, amp = pulse_modulation(state, scn.num_pulses, scn.prf_hz, scn.wavelength, seed)
    return rows, phase, amp


def synthesize_clutter(scn: Scenario, scene: SceneModel, cpi: int,
                       timing: RadarTiming | None = None,
                       budget: PatchBudget | None = None,
                       tx: PlatformState | None = None,
                       seed: int | None = None) -> ChannelImpulseResponse:
    """Clutter impulse response for one CPI (terrain + buildings +
    discretes, with sea-surface modulation when the wind blows).

    The link budget is pure geometry; a caller that has it can pass it
    in.  Only the scatterers with a non-zero gain are drawn and
    accumulated.

    `tx` and `seed` default to the scenario's own transmitter and seed;
    the MIMO path passes its extra transmitters and their clutter seeds.
    The sea surface is one surface for every transmitter, so its
    modulation always follows the scenario seed.
    """
    scn_tx, rx = platform_states(scn, cpi)
    if tx is None:
        tx = scn_tx
    array = receive_array(scn)
    if timing is None:
        timing = scn.timing()
    if budget is None:
        budget = patch_budget(scn, scene, tx, rx, array, timing)
    live = np.flatnonzero(budget.gains)
    responses = _clutter_responses(scn, scene, budget, live, tx, rx, cpi,
                                   scn.seed if seed is None else seed)
    return synthesize_ir(responses, budget.directions[live], array, timing,
                         modulation=_ocean_modulation(scn, scene, cpi, live))


def target_states(scn: Scenario, cpi: int) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """(position, velocity, rcs) per target, propagated to the CPI start."""
    t = cpi * scn.cpi_interval
    return [(tgt.position + tgt.velocity * t, tgt.velocity.copy(), tgt.rcs)
            for tgt in scn.targets]


def synthesize_targets(scn: Scenario, scene: SceneModel | None, cpi: int,
                       timing: RadarTiming | None = None,
                       tx: PlatformState | None = None) -> ChannelImpulseResponse | None:
    """Deterministic target impulse response for one CPI; None when the
    scenario declares no targets.

    Targets share the clutter's link budget with their RCS as sigma0 *
    area, and its terrain shadowing; their phase comes from the path
    length, so repeated runs are bit-identical.  `tx` defaults to the
    scenario's own transmitter, as in `synthesize_clutter`.
    """
    if not scn.targets:
        return None
    scn_tx, rx = platform_states(scn, cpi)
    if tx is None:
        tx = scn_tx
    array = receive_array(scn)
    if timing is None:
        timing = scn.timing()
    states = target_states(scn, cpi)
    points = np.array([pos for pos, _, _ in states])
    gains, directions, _, _ = _link_budget(
        array, tx, rx, points, np.array([rcs for _, _, rcs in states]), np.ones(len(states)))
    if scene is not None:
        gains = np.where(_visibility(scene.dem, tx.position, rx.position, points),
                         gains, 0.0)

    delays, dopplers = bistatic_delays_dopplers(
        points, np.array([vel for _, vel, _ in states]), tx, rx, scn.wavelength)
    phase = -2.0 * np.pi * (delays * SPEED_OF_LIGHT) / scn.wavelength
    responses = scatterer_responses(delays, dopplers, np.sqrt(gains) * np.exp(1j * phase),
                                    np.arange(len(states)))
    return synthesize_ir(responses, directions, array, timing)


def _check_indices(scn: Scenario, cpi: int, pulse: int = 0, channel: int = 0) -> None:
    """Reject a CPI, pulse or receive-channel index outside the scenario."""
    for name, value, count in (("cpi", cpi, scn.num_cpis), ("pulse", pulse, scn.num_pulses),
                               ("channel", channel, scn.num_channels)):
        if not 0 <= value < count:
            raise ConfigurationError(f"{name} index {value} is outside 0..{count - 1}")


def default_waveform(scn: Scenario) -> Waveform:
    return lfm(scn.bandwidth_hz, scn.pulse_duration_s, scn.sample_rate)


@dataclass
class CPIResult:
    cpi: int
    clutter_ir: ChannelImpulseResponse | None
    target_ir: ChannelImpulseResponse | None
    cube: DataCube


@dataclass
class ScenarioRun:
    scenario: Scenario
    scene: SceneModel | None
    waveform: Waveform
    results: list[CPIResult]

    @property
    def cubes(self) -> list[DataCube]:
        return [r.cube for r in self.results]


def simulate_cpi(scn: Scenario, scene: SceneModel | None, cpi: int,
                 waveform: Waveform) -> CPIResult:
    timing = scn.timing()
    clutter_ir = synthesize_clutter(scn, scene, cpi, timing) if scene is not None else None
    target_ir = synthesize_targets(scn, scene, cpi, timing)
    if clutter_ir is None and target_ir is None:
        raise ConfigurationError("scenario has neither terrain nor targets")
    cube = simulate_cube(clutter_ir, target_ir, waveform, scn.noise_power,
                         seed=scn.seed, carrier_hz=scn.carrier_hz, cpi_index=cpi)
    return CPIResult(cpi=cpi, clutter_ir=clutter_ir, target_ir=target_ir, cube=cube)


def simulate_scenario(scn: Scenario, waveform: Waveform | None = None,
                      scene: SceneModel | None = None) -> ScenarioRun:
    """Simulate every CPI of a scenario, in CPI order."""
    scn.validate()
    if scene is None:
        scene = build_scene(scn)
    if waveform is None:
        waveform = default_waveform(scn)
    results = [simulate_cpi(scn, scene, c, waveform) for c in range(scn.num_cpis)]
    logger.info("simulated %d CPIs of scenario %s", scn.num_cpis, scn.name)
    return ScenarioRun(scenario=scn, scene=scene, waveform=waveform, results=results)


# --- waveform design support -------------------------------------------------


def clutter_tap_rows(scn: Scenario, scene: SceneModel, cpi: int, pulse: int = 0,
                     channel: int = 0, realizations: int = 1):
    """Callable k -> clutter delay taps of realization k, k < realizations,
    for one (channel, pulse): the row taps[channel, pulse] that
    `synthesize_clutter` would build at CPI `cpi` with the draws of
    realization MOMENT_REALIZATION_BASE + k.  The reserved block keeps
    training draws independent of every exported CPI.

    Only the row is built.  Once per call: the link budget, the live
    scatterers' delays and Dopplers, their taps in (tap, patch id)
    order, their steering entries at `channel` and their sea
    modulation at `pulse`.  Per batch of realizations: one Philox call,
    then each realization's phases, Doppler jitter and slow-time
    entries at `pulse` (`phase_ramp_column`), summed per tap by
    `np.bincount` in (tap, patch id) order and cast to complex64.  A
    batch holds at most MOMENT_BATCH counters or taps (or one
    realization, if that is larger), so the working memory does not
    grow with `realizations`.

    Every factor has `synthesize_ir`'s arithmetic; only each tap's sum
    runs in another order than its GEMM, which shows at most in the
    last bit of the complex64 cast.  Without random phase or Doppler
    jitter no words are drawn and every realization is the same row.
    """
    timing = scn.timing()
    tx, rx = platform_states(scn, cpi)
    array = receive_array(scn)
    budget = patch_budget(scn, scene, tx, rx, array, timing)
    live = np.flatnonzero(budget.gains)
    delays, dopplers = bistatic_delays_dopplers(scene.patches.centers[live], np.zeros(3),
                                                tx, rx, scn.wavelength)
    tap = np.round((delays - timing.delay_origin) * timing.sample_rate).astype(np.int64)
    in_window = (tap >= 0) & (tap < timing.num_taps)
    if not in_window.all():
        logger.warning("%d patch responses fall outside the receive window and were dropped",
                       int(np.count_nonzero(~in_window)))
    ids = scene.patches.ids[live]
    sel = np.flatnonzero(in_window)
    sel = sel[np.lexsort((ids[sel], tap[sel]))]
    ids, tap, delays, dopplers = ids[sel], tap[sel], delays[sel], dopplers[sel]

    gains = budget.gains[live][sel]
    steer = spatial_steering_column(array, budget.directions[live][sel], channel)
    modulation = _ocean_modulation(scn, scene, cpi, live)
    if modulation is not None:
        rows, mod_phase, mod_amp = modulation
        mod_of = np.full(live.size, -1, dtype=np.int64)
        mod_of[rows] = np.arange(rows.size)
        mod_row = mod_of[sel]
        hit = np.flatnonzero(mod_row >= 0)
        pulse_phasor = np.exp(1j * mod_phase[mod_row[hit], pulse])
        pulse_amp = mod_amp[mod_row[hit], pulse]

    def slow_entries(doppler: np.ndarray) -> np.ndarray:
        slow = phase_ramp_column((2.0 * np.pi / timing.prf) * doppler, pulse)
        if modulation is not None:
            slow[..., hit] *= pulse_phasor
            slow[..., hit] *= pulse_amp
        return slow

    model = _clutter_model(scn, scn.seed)
    drawn = not model.deterministic_phase or model.doppler_std_hz > 0
    fixed_slow = None if model.doppler_std_hz > 0 else slow_entries(dopplers)
    key = philox_key(scn.seed, STREAM_CLUTTER)
    num_taps = timing.num_taps

    def draw(ks: np.ndarray) -> np.ndarray:
        """Rows of the realizations `ks`, shape (len(ks), num_taps)."""
        words = (philox_words(key, ids, (MOMENT_REALIZATION_BASE + ks)[:, None], 1)
                 if drawn else None)
        amps, doppler = drawn_amplitudes_dopplers(words, delays, dopplers, gains,
                                                  scn.wavelength, model)
        slow = slow_entries(doppler) if fixed_slow is None else fixed_slow
        terms = np.broadcast_to((amps * steer) * slow, (ks.size, ids.size))
        bins = (np.arange(ks.size)[:, None] * num_taps + tap).reshape(-1)
        out = np.empty((ks.size, num_taps), dtype=np.complex64)
        for part, values in ((out.real, terms.real), (out.imag, terms.imag)):
            part[...] = np.bincount(bins, weights=values.reshape(-1),
                                    minlength=ks.size * num_taps).reshape(ks.size, num_taps)
        return out

    batch = max(1, MOMENT_BATCH // max(ids.size, num_taps))
    start, rows = 0, None

    def realize(k: int) -> np.ndarray:
        nonlocal start, rows
        if rows is None or not start <= k < start + batch:
            start = k - k % batch
            rows = draw(np.arange(start, min(start + batch, realizations)))
        return rows[k - start]

    return realize


def channel_moments(scn: Scenario, scene: SceneModel | None = None, cpi: int = 0,
                    pulse: int = 0, channel: int = 0,
                    realizations: int = 64) -> ChannelMoments:
    """Second moments of the clutter and target channels at one
    (CPI, pulse, channel), sized for waveform design.

    The clutter moment is the mean of H^H H over `realizations` draws
    of the one tap row (`clutter_tap_rows`); the target moment is the
    deterministic target row's H^H H.  The indices, the realization
    count and the presence of targets are checked before the scene or
    the budget is built."""
    _check_indices(scn, cpi, pulse, channel)
    if realizations < 1:
        raise ConfigurationError(f"realizations must be >= 1, got {realizations}")
    if not scn.targets:
        raise ConfigurationError("waveform design needs at least one target")
    if scene is None:
        scene = build_scene(scn)
    if scene is None:
        raise ConfigurationError("waveform design needs a terrain scene")
    p = scn.num_waveform_samples
    clutter = ensemble_second_moment(
        clutter_tap_rows(scn, scene, cpi, pulse, channel, realizations), p, realizations)
    timing = scn.timing()
    target_ir = synthesize_targets(scn, scene, cpi, timing)
    t_taps = np.zeros(target_ir.num_taps, dtype=np.complex64)
    t_taps[target_ir.support] = target_ir.taps[channel, pulse]
    target = ensemble_second_moment(lambda k: t_taps, p, 1)
    return ChannelMoments.from_second_moments(clutter, target, scn.noise_power)


# --- multi-transmitter geometry ----------------------------------------------


def mimo_transmitters(scn: Scenario, cpi: int) -> list[PlatformState]:
    """Transmitter platform states at one CPI: the scenario's own
    transmitter first, then every declared extra."""
    t = cpi * scn.cpi_interval
    tx0, _ = platform_states(scn, cpi)
    states = [tx0]
    for pos, vel in scn.mimo_tx:
        vel = np.asarray(vel, dtype=np.float64)
        states.append(PlatformState(position=np.asarray(pos, dtype=np.float64) + vel * t,
                                    velocity=vel))
    return states


def mimo_irs(scn: Scenario, scene: SceneModel | None, cpi: int,
             ) -> list[list[ChannelImpulseResponse]]:
    """Each transmitter's channels to the scenario's one receive array,
    in transmitter order: its clutter channel when there is a scene,
    then its target channel when there are targets.  Transmitter 0's
    are the single-transmitter pipeline's channels."""
    _check_indices(scn, cpi)
    if scene is None and not scn.targets:
        raise ConfigurationError("scenario has neither terrain nor targets")
    timing = scn.timing()
    tx_channels = []
    for t_idx, tx in enumerate(mimo_transmitters(scn, cpi)):
        channels = []
        if scene is not None:
            # transmitter 0 is the scenario's own: same streams as the
            # single-transmitter pipeline; extras get derived seeds
            seed = scn.seed if t_idx == 0 else derive_seed(scn.seed, STREAM_MIMO_CODE, t_idx)
            channels.append(synthesize_clutter(scn, scene, cpi, timing, tx=tx, seed=seed))
        if scn.targets:
            channels.append(synthesize_targets(scn, scene, cpi, timing, tx=tx))
        tx_channels.append(channels)
    return tx_channels


# --- diagnostic maps ---------------------------------------------------------


@dataclass
class GainMap:
    """Scatterer gains on the terrain patch grid (north rows, east cols);
    row 0 is the northernmost patch row, matching image conventions."""

    gains_db: np.ndarray
    visible: np.ndarray
    grazing: np.ndarray
    patch_size: float


# gain_map's value, in dB, for cells with no gain
GAIN_MAP_FLOOR_DB = -320.0


def gain_map(scn: Scenario, cpi: int = 0) -> GainMap:
    """Per-patch budget at one CPI arranged as a north-up raster.

    Each cell's gain is the linear-power sum of its terrain patch and of
    the roofs and discretes inside it; a scatterer off the patch grid
    has no cell and is left out.  `visible` and `grazing` describe the
    terrain patches.
    """
    _check_indices(scn, cpi)
    scene = build_scene(scn)
    if scene is None:
        raise ConfigurationError("gain map needs a terrain raster")
    tx, rx = platform_states(scn, cpi)
    array = receive_array(scn)
    budget = patch_budget(scn, scene, tx, rx, array)

    n = scene.num_terrain_patches
    n_y, n_x = scene.grid_shape
    # the budget marches only the candidates; the map shows every patch
    visible = budget.visible[:n].copy()
    rest = np.flatnonzero(~budget.los_tested[:n])
    visible[rest] = _visibility(scene.dem, tx.position, rx.position,
                                scene.patches.centers[rest])
    gains = budget.gains[:n].copy()
    xy = scene.patches.centers[n:, :2] / scn.patch_size_m
    on_grid = np.all(xy >= 0.0, axis=1) & (xy[:, 0] < n_x) & (xy[:, 1] < n_y)
    cells = np.floor(xy[on_grid]).astype(np.int64)
    np.add.at(gains, cells[:, 1] * n_x + cells[:, 0], budget.gains[n:][on_grid])
    g = gains.reshape(n_y, n_x)[::-1]                       # south-up -> north-up
    vis = visible.reshape(n_y, n_x)[::-1]
    graz = budget.grazing[:n].reshape(n_y, n_x)[::-1]
    with np.errstate(divide="ignore"):
        gdb = 10.0 * np.log10(g)
    gdb = np.where(np.isfinite(gdb), np.maximum(gdb, GAIN_MAP_FLOOR_DB), GAIN_MAP_FLOOR_DB)
    return GainMap(gains_db=gdb, visible=vis, grazing=graz, patch_size=scn.patch_size_m)
