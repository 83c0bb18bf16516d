"""Terrain geometry: sampling, normals, grazing, line of sight, rasters."""

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfclutter import terrain
from rfclutter.errors import ConfigurationError
from rfclutter.terrain import (ClassGrid, ElevationGrid, PatchArrays, build_patch_grid,
                               grazing_angles, lines_of_sight, patch_grid_shape, read_dem,
                               read_landcover)
from rfclutter.scattering import GRASS, WATER
from rfclutter.workers import run_blocks

from conftest import ridge_heights
from oracles import grazing_angle, line_of_sight, reshape_block_bound, write_dem, write_landcover


def planar_dem(nx=16, ny=16, cell=10.0, gx=0.0, gy=0.0, z0=0.0):
    """Heights on the plane z = z0 + gx*x + gy*y (row 0 = north)."""
    x = (np.arange(nx) + 0.5) * cell
    y = (np.arange(ny) + 0.5) * cell
    south_up = z0 + gy * y[:, None] + gx * x[None, :]
    return ElevationGrid(heights=south_up[::-1], cell_size=cell)


def uniform_cover(dem, cls=GRASS):
    return ClassGrid(classes=np.full(dem.heights.shape, cls, dtype=np.int64),
                     cell_size=dem.cell_size)


# --- height sampling ---------------------------------------------------------

def test_bilinear_sampling_reproduces_plane():
    # bilinear interpolation is exact on any plane
    dem = planar_dem(gx=0.02, gy=-0.01, z0=5.0)
    # interpolation is exact between node centers (the outer half-cell
    # rim clamps, so stay inside the [5, 155] hull)
    xs = np.array([7.0, 55.5, 101.3, 150.0])
    ys = np.array([12.0, 80.0, 33.3, 154.9])
    expected = 5.0 + 0.02 * xs - 0.01 * ys
    np.testing.assert_allclose(dem.heights_at(xs, ys), expected, rtol=0, atol=1e-9)


def test_heights_clamp_outside_extent():
    dem = planar_dem(gx=0.1)
    inside = float(dem.heights_at(155.0, 80.0))   # last node center column
    assert float(dem.heights_at(1e6, 80.0)) == pytest.approx(inside)


def test_dem_rejects_bad_inputs():
    with pytest.raises(ConfigurationError):
        ElevationGrid(heights=np.zeros((0, 4)), cell_size=10.0)
    with pytest.raises(ConfigurationError):
        ElevationGrid(heights=np.zeros((4, 4)), cell_size=0.0)
    bad = np.zeros((4, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ConfigurationError):
        ElevationGrid(heights=bad, cell_size=10.0)


# --- patch grids -------------------------------------------------------------

def test_patch_count_matches_aggregation_arithmetic():
    dem = planar_dem(nx=20, ny=12, cell=10.0)
    cover = uniform_cover(dem)
    patches = build_patch_grid(dem, cover, patch_size=30.0)
    # extent 200 x 120 m, 30 m patches -> ceil(200/30) * ceil(120/30)
    assert len(patches) == 7 * 4
    assert patch_grid_shape(dem, 30.0) == (4, 7)


def test_patch_ids_run_row_major_from_southwest():
    dem = planar_dem(nx=6, ny=6, cell=10.0)
    patches = build_patch_grid(dem, uniform_cover(dem), patch_size=20.0)
    centers = patches.centers
    assert patches.ids[0] == 0
    # first row of ids walks east, then the next row starts further north
    assert centers[1, 0] > centers[0, 0]
    assert centers[1, 1] == pytest.approx(centers[0, 1])
    assert centers[3, 1] > centers[0, 1]
    assert patches.ids.tolist() == list(range(len(patches)))


def test_normals_against_finite_difference_oracle():
    """Normals on an analytic plane must equal the true plane normal."""
    gx, gy = 0.05, -0.03
    dem = planar_dem(nx=24, ny=24, cell=10.0, gx=gx, gy=gy)
    patches = build_patch_grid(dem, uniform_cover(dem), patch_size=20.0)
    true_normal = np.array([-gx, -gy, 1.0]) / math.sqrt(gx * gx + gy * gy + 1.0)
    for normal in patches.normals:
        np.testing.assert_allclose(normal, true_normal, atol=1e-12)
        assert abs(np.linalg.norm(normal) - 1.0) < 1e-9


def test_patch_area_carries_slope_correction():
    gx = 0.75  # steep constant slope in x
    dem = planar_dem(nx=24, ny=24, cell=10.0, gx=gx)
    patches = build_patch_grid(dem, uniform_cover(dem), patch_size=20.0)
    flat_area = 20.0 * 20.0
    expected = flat_area * math.sqrt(1.0 + gx * gx)
    for area in patches.areas:
        assert area == pytest.approx(expected, rel=1e-9)


def test_patch_arrays_select_rows_and_reject_bad_columns():
    dem = planar_dem(nx=6, ny=6, cell=10.0, gx=0.1)
    p = build_patch_grid(dem, uniform_cover(dem), patch_size=20.0)
    sub = p[np.array([4, 1])]
    assert len(sub) == 2 and sub.ids.tolist() == [4, 1]
    np.testing.assert_array_equal(sub.centers, p.centers[[4, 1]])
    np.testing.assert_array_equal(sub.normals, p.normals[[4, 1]])
    assert len(p[:0]) == 0 and len(p[p.ids % 2 == 0]) == 5
    for bad in (dict(normals=2.0 * p.normals), dict(areas=-p.areas),
                dict(centers=p.centers[:-1])):
        cols = dict(centers=p.centers, normals=p.normals, areas=p.areas,
                    classes=p.classes, ids=p.ids)
        cols.update(bad)
        with pytest.raises(ConfigurationError):
            PatchArrays(**cols)


def test_patch_grid_rejects_mismatched_rasters():
    dem = planar_dem(nx=8, ny=8)
    small = ClassGrid(classes=np.full((4, 4), GRASS, dtype=np.int64), cell_size=10.0)
    with pytest.raises(ConfigurationError):
        build_patch_grid(dem, small, patch_size=20.0)
    with pytest.raises(ConfigurationError):
        build_patch_grid(dem, uniform_cover(dem), patch_size=5.0)  # below cell size


# --- grazing angle -----------------------------------------------------------

ORIGIN = np.zeros(3)
UP = np.array([0.0, 0.0, 1.0])


def test_grazing_angle_closed_forms():
    assert grazing_angle(ORIGIN, UP, np.array([0.0, 0.0, 100.0])) == pytest.approx(math.pi / 2)
    # 45 degrees: equal horizontal offset and height
    assert grazing_angle(ORIGIN, UP, np.array([100.0, 0.0, 100.0])) == pytest.approx(math.pi / 4)
    # observer below the facet plane -> negative
    assert grazing_angle(ORIGIN, UP, np.array([100.0, 0.0, -5.0])) < 0.0


def test_grazing_matches_vectorized_form():
    rng = np.random.default_rng(11)
    normals = rng.normal(size=(40, 3))
    normals[:, 2] = np.abs(normals[:, 2]) + 0.5
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    patches = PatchArrays(centers=rng.uniform(-50, 50, (40, 3)), normals=normals,
                          areas=np.ones(40), classes=np.full(40, GRASS), ids=np.arange(40))
    obs = np.array([10.0, -20.0, 500.0])
    vec = grazing_angles(patches, obs)
    scalar = np.array([grazing_angle(c, n, obs)
                       for c, n in zip(patches.centers, patches.normals)])
    np.testing.assert_allclose(vec, scalar, atol=1e-12)


@given(st.floats(0.0, 2.0 * math.pi))
def test_grazing_invariant_under_rotation_about_normal(theta):
    """Spinning the scene around the patch normal leaves grazing unchanged."""
    obs = np.array([300.0, 400.0, 250.0])
    base = grazing_angle(ORIGIN, UP, obs)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])  # about +z
    assert grazing_angle(ORIGIN, UP, rot @ obs) == pytest.approx(base, abs=1e-12)


# --- line of sight -----------------------------------------------------------

def ray_march_los(dem, obs, pt, step):
    """Independent dense ray-march oracle, endpoints excluded."""
    obs = np.asarray(obs, float)
    pt = np.asarray(pt, float)
    dist = math.hypot(pt[0] - obs[0], pt[1] - obs[1])
    n = max(2, int(math.ceil(dist / step)) + 1)
    t = np.linspace(0.0, 1.0, n + 1)[1:-1]
    xs = obs[0] + t * (pt[0] - obs[0])
    ys = obs[1] + t * (pt[1] - obs[1])
    zs = obs[2] + t * (pt[2] - obs[2])
    return not bool(np.any(dem.heights_at(xs, ys) > zs))


def test_los_blocked_by_ridge_and_clear_above(ridge_dem):
    # observer south of the ridge at low altitude; point north of it
    obs = (320.0, 40.0, 12.0)
    behind = (320.0, 600.0, 2.0)
    assert not line_of_sight(ridge_dem, obs, behind)
    high = (320.0, 40.0, 400.0)
    assert line_of_sight(ridge_dem, high, behind)


def test_los_agrees_with_ray_march_oracle(ridge_dem):
    rng = np.random.default_rng(3)
    obs = (100.0, 50.0, 60.0)
    agree = 0
    total = 120
    for _ in range(total):
        pt = (rng.uniform(5, 635), rng.uniform(5, 635), rng.uniform(0, 30))
        got = line_of_sight(ridge_dem, obs, pt)
        want = ray_march_los(ridge_dem, obs, pt, step=1.0)
        agree += got == want
    assert agree == total


def test_los_is_symmetric(ridge_dem):
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = (rng.uniform(5, 635), rng.uniform(5, 635), rng.uniform(0, 120))
        b = (rng.uniform(5, 635), rng.uniform(5, 635), rng.uniform(0, 120))
        assert line_of_sight(ridge_dem, a, b) == line_of_sight(ridge_dem, b, a)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 63), st.integers(0, 63), st.floats(1.0, 60.0))
def test_raising_terrain_never_reveals(iy, ix, bump):
    """Shadow monotonicity: lifting one sample can only block, not reveal."""
    hts = ridge_heights(64, 10.0)
    dem = ElevationGrid(heights=hts, cell_size=10.0)
    obs = (320.0, 40.0, 30.0)
    pt = (320.0, 620.0, 5.0)
    before = line_of_sight(dem, obs, pt)
    hts2 = hts.copy()
    hts2[iy, ix] += bump
    after = line_of_sight(ElevationGrid(heights=hts2, cell_size=10.0), obs, pt)
    if not before:
        assert not after


def test_los_off_raster_samples_do_not_occlude(ridge_dem):
    with pytest.raises(ConfigurationError):
        line_of_sight(ridge_dem, (10.0, 10.0, 5.0), (100.0, 100.0, 5.0), step=0.0)
    # west of the raster the clamped border would repeat the ridge crest
    # under this rising ray; only the on-raster samples may block it
    obs = (-500.0, 320.0, 10.0)
    crest = (5.0, 320.0, 85.0)
    assert line_of_sight(ridge_dem, obs, crest)
    assert line_of_sight(ridge_dem, crest, obs)
    # terrain on the raster still blocks a ray from an off-raster observer
    assert not line_of_sight(ridge_dem, (320.0, -400.0, 12.0), (320.0, 600.0, 2.0))
    assert line_of_sight(ridge_dem, (320.0, -400.0, 400.0), (320.0, 600.0, 2.0))


def test_los_mask_matches_scalar_calls(ridge_dem):
    cover = ClassGrid(classes=np.full((64, 64), WATER, dtype=np.int64), cell_size=10.0)
    patches = build_patch_grid(ridge_dem, cover, patch_size=80.0)
    obs = (320.0, 40.0, 25.0)
    mask = lines_of_sight(ridge_dem, obs, patches.centers)
    assert mask.shape == (len(patches),)
    for k in (0, 17, len(patches) - 1):
        assert mask[k] == line_of_sight(ridge_dem, obs, patches.centers[k])
    assert mask.any() and not mask.all()   # the ridge must shadow something


# Heights and ray altitudes share these levels, so with clearances from
# CLEARANCES a raised ray often equals the terrain exactly at a sample.
LEVELS = [-6.0, -1.0, 0.0, 1.0, 2.0, 3.5, 4.5, 9.0]
CLEARANCES = [0.0, 1.0, 2.5, -1.0]


@st.composite
def los_queries(draw):
    """A small DEM (negative heights and plateaus included) and one
    observer with its points, each on or off the raster."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = draw(st.sampled_from([1.0, 2.5, 10.0]))
    level = st.one_of(st.sampled_from(LEVELS), st.floats(-20.0, 20.0))
    heights = draw(st.lists(level, min_size=rows * cols, max_size=rows * cols))
    dem = ElevationGrid(heights=np.reshape(heights, (rows, cols)), cell_size=cell)

    def endpoint():
        xy = [draw(st.one_of(st.floats(0.0, extent), st.floats(-extent, 2.0 * extent)))
              for extent in (dem.extent_east, dem.extent_north)]
        return xy + [draw(level)]

    observer = endpoint()
    points = [endpoint() for _ in range(draw(st.integers(0, 10)))]
    if draw(st.booleans()):
        for p in points:             # horizontal rays
            p[2] = observer[2]
    clearance = draw(st.sampled_from(CLEARANCES))
    step = draw(st.one_of(st.none(), st.floats(0.2 * cell, 3.0 * cell)))
    return dem, observer, points, clearance, step


@settings(max_examples=300, deadline=None)
@given(los_queries())
def test_lines_of_sight_matches_scalar_reference(query):
    dem, observer, points, clearance, step = query
    got = lines_of_sight(dem, observer, np.reshape(points, (-1, 3)), clearance, step)
    want = [line_of_sight(dem, observer, p, clearance, step) for p in points]
    assert got.dtype == bool and got.tolist() == want


def test_lines_of_sight_plateau_at_ray_height():
    """Rays level with a plateau: raised by the clearance onto it
    exactly, or one ulp above it, where only the rounding of the
    interpolation can block them.  The block bound's margin must keep
    those samples."""
    xs = np.linspace(-10.0, 40.0, 41)
    for plateau, ray_z, clearance in ((4.5, 3.5, 1.0), (7.3, np.nextafter(7.3, 8.0), 0.0)):
        dem = ElevationGrid(heights=np.full((12, 12), plateau), cell_size=2.5)
        points = np.column_stack([xs, xs[::-1], np.full(xs.size, ray_z)])
        want = []
        for observer in ((0.3, 29.7, ray_z), (15.0, 15.0, ray_z), (-7.0, 2.0, ray_z)):
            got = lines_of_sight(dem, observer, points, clearance=clearance, step=0.1)
            want = [line_of_sight(dem, observer, p, clearance=clearance, step=0.1)
                    for p in points]
            assert got.tolist() == want
        assert not all(want) and any(want)


def test_lines_of_sight_thin_wall_far_along_the_ray():
    """A one-node wall far from the observer blocks level rays; it must
    be found whatever run of samples it falls in."""
    heights = np.zeros((8, 400))
    heights[:, 300] = 50.0
    dem = ElevationGrid(heights=heights, cell_size=10.0)
    for x0 in np.arange(5.0, 400.0, 13.0):
        got = lines_of_sight(dem, (x0, 40.0, 20.0), [(3995.0, 40.0, 20.0), (3995.0, 41.0, 80.0)])
        assert got.tolist() == [False, True]


def test_lines_of_sight_long_rays_cross_chunks(ridge_dem):
    """Rays longer than one chunk, from an observer below the ridge
    crest, agree with the reference."""
    obs = (320.0, 40.0, 30.0)
    points = np.array([(x, 600.0, z) for x in (5.0, 320.0, 630.0) for z in (2.0, 300.0)])
    step = 0.004
    assert 560.0 / step > terrain.LOS_CHUNK
    got = lines_of_sight(ridge_dem, obs, points, step=step)
    want = [line_of_sight(ridge_dem, obs, p, step=step) for p in points]
    assert got.tolist() == want
    assert not all(want) and any(want)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_lines_of_sight_do_not_depend_on_the_worker_count(set_worker_count, monkeypatch,
                                                          ridge_dem, workers):
    """Spans of seven runs split 1, 2, 3 and 8 ways, with kept runs
    expanded a few at a time, give the scalar reference's answers."""
    monkeypatch.setattr(terrain, "LOS_SPAN", 7)
    monkeypatch.setattr(terrain, "LOS_CHUNK", 100)
    set_worker_count(workers)
    spans = []

    def counting(task, count):
        spans.append(count)
        return run_blocks(task, count)

    monkeypatch.setattr(terrain, "run_blocks", counting)
    cover = ClassGrid(classes=np.full((64, 64), GRASS, dtype=np.int64), cell_size=10.0)
    points = build_patch_grid(ridge_dem, cover, patch_size=40.0).centers
    for obs in ((320.0, 40.0, 30.0), (-50.0, 700.0, 120.0)):
        got = lines_of_sight(ridge_dem, obs, points, clearance=1.0)
        want = [line_of_sight(ridge_dem, obs, p, clearance=1.0) for p in points]
        assert got.tolist() == want
        assert not all(want) and any(want)
    assert min(spans) > 8


def test_lines_of_sight_validation(ridge_dem):
    obs = (10.0, 10.0, 5.0)
    assert lines_of_sight(ridge_dem, obs, np.zeros((0, 3))).shape == (0,)
    for step in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigurationError):
            lines_of_sight(ridge_dem, obs, [(100.0, 100.0, 5.0)], step=step)
        with pytest.raises(ConfigurationError):
            line_of_sight(ridge_dem, obs, (100.0, 100.0, 5.0), step=step)
    with pytest.raises(ConfigurationError):
        lines_of_sight(ridge_dem, obs, [(100.0, 100.0, 5.0)], clearance=float("nan"))
    with pytest.raises(ConfigurationError):
        lines_of_sight(ridge_dem, obs, [(100.0, float("inf"), 5.0)])


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (667, 667)])
def test_block_bound_keeps_the_reshape_maximum_bytes(shape):
    """The strided-phase block maximum gives the reshape reduction's
    bytes, on sides that are not multiples of LOS_BLOCK (the padding's
    -inf never wins) and on the full-scale raster's size."""
    assert all(side % terrain.LOS_BLOCK for side in shape)
    # heights of both signs, rounded so that ties occur
    heights = np.round(np.random.default_rng(sum(shape)).normal(0.0, 50.0, size=shape), 1)
    dem = ElevationGrid(heights=heights, cell_size=30.0)
    assert terrain._block_bound(dem).tobytes() == reshape_block_bound(dem).tobytes()


@pytest.fixture
def bound_builds(monkeypatch):
    """The grids whose LOS block bound gets built, in build order; each
    build sleeps briefly so that racing threads would overlap it."""
    builds = []
    block_bound = terrain._block_bound

    def counting(dem):
        builds.append(dem)
        time.sleep(0.01)
        return block_bound(dem)

    monkeypatch.setattr(terrain, "_block_bound", counting)
    return builds


def test_lines_of_sight_builds_each_grid_bound_once(bound_builds, ridge_dem):
    other = ElevationGrid(heights=ridge_heights(48, 12.0, crest=60.0), cell_size=12.0)
    obs = (320.0, 40.0, 30.0)
    points = np.array([(x, 600.0, z) for x in (5.0, 320.0, 630.0) for z in (2.0, 300.0)])
    first = lines_of_sight(ridge_dem, obs, points)
    second = lines_of_sight(ridge_dem, obs, points[::-1], clearance=1.0, step=3.0)
    third = lines_of_sight(other, obs, points)
    assert bound_builds == [ridge_dem, other]
    for dem, args, got in ((ridge_dem, (points,), first),
                           (ridge_dem, (points[::-1], 1.0, 3.0), second),
                           (other, (points,), third)):
        fresh = ElevationGrid(heights=dem.heights.copy(), cell_size=dem.cell_size)
        assert lines_of_sight(fresh, obs, *args).tolist() == got.tolist()
    assert not all(first) and any(first)


def test_threads_share_one_los_bound_build(bound_builds, ridge_dem):
    obs = (320.0, 40.0, 30.0)
    points = np.array([(x, 600.0, z) for x in (5.0, 320.0, 630.0) for z in (2.0, 300.0)])
    want = lines_of_sight(ElevationGrid(heights=ridge_dem.heights.copy(), cell_size=10.0),
                          obs, points).tolist()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(lines_of_sight, ridge_dem, obs, points) for _ in range(12)]
            got = [f.result(timeout=60).tolist() for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 12
    assert len(bound_builds) == 2   # `want`'s fresh grid, then ridge_dem once


def test_reassigned_heights_rebuild_the_los_bound():
    """A bound is tied to the heights array it was built from: the flat
    grid's bound would cull every sample of a ray over the new ridge."""
    dem = ElevationGrid(heights=np.zeros((64, 64)), cell_size=10.0)
    obs = (320.0, 40.0, 30.0)
    behind = [(320.0, 600.0, 2.0)]
    assert lines_of_sight(dem, obs, behind)[0]
    dem.heights = ridge_heights(64, 10.0)
    assert not lines_of_sight(dem, obs, behind)[0]


def test_assigned_heights_are_checked_like_constructed_ones():
    dem = ElevationGrid(heights=np.zeros((8, 8)), cell_size=10.0)
    bad = np.zeros((8, 8))
    bad[3, 4] = np.nan
    for value in (bad, np.zeros(8), np.zeros((0, 8))):
        with pytest.raises(ConfigurationError):
            dem.heights = value
    assert np.all(dem.heights == 0.0) and not dem.heights.flags.writeable


def test_editing_an_assigned_array_in_place_changes_nothing():
    """`heights` holds its own read-only copy of a writable array: a
    ridge raised in the caller's array after the assignment leaves the
    grid flat, and the batched LOS still agrees with the scalar one."""
    dem = ElevationGrid(heights=np.ones((64, 64)), cell_size=10.0)
    arr = np.zeros((64, 64))
    dem.heights = arr
    obs = (320.0, 40.0, 30.0)
    points = np.array([(x, 600.0, 2.0) for x in (100.0, 320.0, 500.0)])
    assert lines_of_sight(dem, obs, points).all()
    arr[:] = ridge_heights(64, 10.0)
    assert np.all(dem.heights == 0.0) and not dem.heights.flags.writeable
    got = lines_of_sight(dem, obs, points)
    assert got.tolist() == [line_of_sight(dem, obs, p) for p in points] == [True] * 3
    # the same ridge assigned (not edited in) does block every ray
    dem.heights = arr
    assert not lines_of_sight(dem, obs, points).any()
    # a read-only view is copied too (its base may still be written);
    # only a read-only array that owns its memory is adopted as is
    view = np.zeros((64, 64))[:]
    view.setflags(write=False)
    dem.heights = view
    view.base[:] = 500.0
    assert np.all(dem.heights == 0.0)
    frozen = np.zeros((64, 64))
    frozen.setflags(write=False)
    dem.heights = frozen
    assert dem.heights is frozen


# --- raster file format ------------------------------------------------------

def test_dem_round_trip(tmp_path, ridge_dem):
    path = tmp_path / "ridge.dem"
    write_dem(path, ridge_dem)
    back = read_dem(path)
    np.testing.assert_array_equal(back.heights, ridge_dem.heights)
    assert back.cell_size == ridge_dem.cell_size


def test_landcover_round_trip(tmp_path):
    grid = ClassGrid(classes=np.arange(12, dtype=np.int64).reshape(3, 4) % 5,
                     cell_size=25.0)
    path = tmp_path / "cover.lc"
    write_landcover(path, grid)
    back = read_landcover(path)
    np.testing.assert_array_equal(back.classes, grid.classes)


def test_raster_reader_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.dem"
    bad.write_text("nrows 2\nncols 2\ncellsize 10\norigin 0 0\n1 2 3\n")
    with pytest.raises(ConfigurationError):
        read_dem(bad)
    worse = tmp_path / "worse.dem"
    worse.write_text("ncols 2\ncellsize 10\norigin 0 0\n1 2\n")
    with pytest.raises(ConfigurationError):
        read_dem(worse)


@pytest.mark.parametrize("reader", [read_dem, read_landcover])
@pytest.mark.parametrize("header", [
    "nrows 2\nncols 3\ncellsize nan\norigin 0 0\n",
    "nrows 2\nncols 3\ncellsize inf\norigin 0 0\n",
    "nrows 2\nncols 3\ncellsize 0\norigin 0 0\n",
    "nrows 2\nncols 3\ncellsize 10\norigin nan 0\n",
    "nrows 2\nncols 3\ncellsize 10\norigin 0 -inf\n",
    "nrows -2\nncols -3\ncellsize 10\norigin 0 0\n",
    "nrows 0\nncols 0\ncellsize 10\norigin 0 0\n",
], ids=["cellsize-nan", "cellsize-inf", "cellsize-0", "origin-nan", "origin-inf",
        "negative-shape", "empty-shape"])
def test_raster_reader_rejects_bad_georeference(tmp_path, reader, header):
    """A non-finite or non-positive cell size, a non-finite origin and
    fewer than one row or column are configuration errors, not a grid
    with a NaN extent or a reshape traceback."""
    values = "" if header.startswith("nrows 0") else "1 2 3\n4 5 6\n"
    path = tmp_path / "bad.raster"
    path.write_text(header + values)
    with pytest.raises(ConfigurationError):
        reader(path)
