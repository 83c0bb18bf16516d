"""Terrain representation and scene geometry.

Everything works in a local east-north-up (ENU) frame in meters.  An
elevation grid is anchored at a geodetic origin (its south-west corner);
grid cells are area elements of size ``cell_size`` with the stored
height taken at the cell center.  Row 0 of the height array is the
northernmost row, matching the on-disk layout.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.ndimage import maximum_filter

from .errors import ConfigurationError
from .workers import run_blocks

_LOS_BOUNDS_LOCK = threading.Lock()


def _count_cells(extent: float, size: float) -> int:
    # ceil with a small guard so exact divisions do not round up by one
    # float ulp (e.g. 20010 / 30 must give 667, not 668).
    return max(1, math.ceil(extent / size - 1e-9))


def _check_georeference(cell_size: float, origin_lat: float, origin_lon: float) -> None:
    if not (np.isfinite(cell_size) and cell_size > 0):
        raise ConfigurationError(f"cell_size must be positive and finite, got {cell_size}")
    if not (np.isfinite(origin_lat) and np.isfinite(origin_lon)):
        raise ConfigurationError(
            f"grid origin must be finite, got ({origin_lat}, {origin_lon})")


@dataclass
class ElevationGrid:
    """Regular height raster.

    heights[r, c] is the terrain height (m) at the center of cell
    (r, c); row 0 is the northernmost row.  The grid origin (south-west
    corner of the raster) sits at ENU (0, 0).
    """

    heights: np.ndarray          # (nrows, ncols) m, row 0 = north
    cell_size: float             # m
    origin_lat: float = 0.0      # deg, geodetic anchor of the SW corner
    origin_lon: float = 0.0      # deg
    # (heights array, LosBounds) of the last los_bounds build
    _los_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_georeference(self.cell_size, self.origin_lat, self.origin_lon)

    def __setattr__(self, name, value):
        # every `heights` assignment, the constructor's included, is
        # checked and stored read-only.  A read-only array that owns its
        # memory is adopted as is; anything else is copied, so no
        # caller-held array can change the heights (or leave
        # `los_bounds` stale) afterwards.
        if name == "heights":
            value = np.asarray(value, dtype=np.float64)
            if value.flags.writeable or not value.flags.owndata:
                value = value.copy()
            if value.ndim != 2 or value.size == 0:
                raise ConfigurationError("elevation grid must be a non-empty 2-D array")
            if not np.all(np.isfinite(value)):
                raise ConfigurationError("elevation grid contains non-finite heights")
            value.setflags(write=False)
        object.__setattr__(self, name, value)

    @property
    def los_bounds(self) -> "LosBounds":
        """The block height bounds `lines_of_sight` culls with, built
        on first use and kept for this `heights` array; assigning
        `heights` stores a new array and so rebuilds them."""
        with _LOS_BOUNDS_LOCK:   # callers on several threads may share one grid
            cache = self._los_cache
            if cache is None or cache[0] is not self.heights:
                fine = _block_bound(self)
                coarse = maximum_filter(fine, size=2 * LOS_REACH + 1, mode="nearest")
                fine.setflags(write=False)
                coarse.setflags(write=False)
                cache = (self.heights, LosBounds(fine, coarse, float(fine.max()),
                                                 float(np.abs(fine).max())))
                self._los_cache = cache
            return cache[1]

    @property
    def nrows(self) -> int:
        return self.heights.shape[0]

    @property
    def ncols(self) -> int:
        return self.heights.shape[1]

    @property
    def extent_east(self) -> float:
        """East-west raster extent in meters."""
        return self.ncols * self.cell_size

    @property
    def extent_north(self) -> float:
        return self.nrows * self.cell_size

    def within_extent(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return (x >= 0.0) & (x <= self.extent_east) & (y >= 0.0) & (y <= self.extent_north)

    def node_coords(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Fractional (row, col) node coordinates of ENU (x, y), clamped
        to the node grid.  Node (r, c) sits at x = (c + 0.5) * cell,
        y = (nrows - 1 - r + 0.5) * cell."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        fc = np.clip(x / self.cell_size - 0.5, 0.0, self.ncols - 1.0)
        fr = np.clip((self.nrows - 1) - (y / self.cell_size - 0.5), 0.0, self.nrows - 1.0)
        return fr, fc

    def heights_at(self, x, y) -> np.ndarray:
        """Bilinear interpolation of the height field at ENU (x, y).

        Interpolates between cell-center samples; queries in the half-cell
        rim between the outermost centers and the raster edge clamp to
        the border values.  Callers are expected to stay within the
        raster extent (see within_extent).
        """
        h = self.heights
        fr, fc = self.node_coords(x, y)
        c0 = np.floor(fc).astype(np.intp)
        r0 = np.floor(fr).astype(np.intp)
        c1 = np.minimum(c0 + 1, self.ncols - 1)
        r1 = np.minimum(r0 + 1, self.nrows - 1)
        wc = fc - c0
        wr = fr - r0
        return ((1.0 - wr) * (1.0 - wc) * h[r0, c0]
                + (1.0 - wr) * wc * h[r0, c1]
                + wr * (1.0 - wc) * h[r1, c0]
                + wr * wc * h[r1, c1])


@dataclass
class ClassGrid:
    """Integer land-cover raster co-registered with an ElevationGrid."""

    classes: np.ndarray          # (nrows, ncols) int codes, row 0 = north
    cell_size: float             # m
    origin_lat: float = 0.0
    origin_lon: float = 0.0

    def __post_init__(self):
        self.classes = np.asarray(self.classes, dtype=np.int64)
        if self.classes.ndim != 2 or self.classes.size == 0:
            raise ConfigurationError("class grid must be a non-empty 2-D array")
        _check_georeference(self.cell_size, self.origin_lat, self.origin_lon)
        self.classes.setflags(write=False)

    @property
    def nrows(self) -> int:
        return self.classes.shape[0]

    @property
    def ncols(self) -> int:
        return self.classes.shape[1]

    def classes_at(self, x, y) -> np.ndarray:
        """Nearest-cell class lookup at ENU (x, y)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        c = np.clip(np.round(x / self.cell_size - 0.5).astype(np.intp), 0, self.ncols - 1)
        r = np.clip(np.round((self.nrows - 1) - (y / self.cell_size - 0.5)).astype(np.intp),
                    0, self.nrows - 1)
        return self.classes[r, c]


@dataclass
class PlatformState:
    """Position and velocity of a transmitter or receiver, local ENU."""

    position: np.ndarray         # (3,) m
    velocity: np.ndarray         # (3,) m/s

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(self.position)) and np.all(np.isfinite(self.velocity))):
            raise ConfigurationError("platform state must be finite")
        if self.position[2] < 0:
            raise ConfigurationError("platform altitude must be non-negative")


@dataclass
class PatchArrays:
    """The scatterers of a scene, one row each, in ascending id order.

    Terrain patches, building roofs and stationary discretes all share
    this form: a center, an outward unit normal (up for level ground),
    a tilt-corrected area, a land-cover class and the patch id that
    keys every random draw of the scatterer.  Indexing with a slice, a
    mask or an index array selects rows.
    """

    centers: np.ndarray          # (n, 3) m ENU
    normals: np.ndarray          # (n, 3) unit
    areas: np.ndarray            # (n,) m^2
    classes: np.ndarray          # (n,) int
    ids: np.ndarray              # (n,) int

    def __post_init__(self):
        n = len(self.ids)
        if not all(len(a) == n for a in (self.centers, self.normals, self.areas, self.classes)):
            raise ConfigurationError("patch columns must all have one row per patch")
        norms = np.sqrt(np.einsum("ij,ij->i", self.normals, self.normals))
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ConfigurationError("patch normals must be unit length")
        if not np.all(self.areas > 0):
            raise ConfigurationError("patch areas must be positive")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index) -> "PatchArrays":
        return PatchArrays(self.centers[index], self.normals[index], self.areas[index],
                           self.classes[index], self.ids[index])


def patch_grid_shape(dem: ElevationGrid, patch_size: float) -> tuple[int, int]:
    """(rows, cols) of the square patches that tile the raster extent."""
    return (_count_cells(dem.extent_north, patch_size),
            _count_cells(dem.extent_east, patch_size))


def build_patch_grid(dem: ElevationGrid, landcover: ClassGrid,
                     patch_size: float) -> PatchArrays:
    """Tile the raster extent into square patches and sample geometry.

    One patch per aggregated cell; patch centers are sampled from the
    height field bilinearly, normals from central height differences
    (one-sided at the borders), and the area carries the 1/cos(tilt)
    slope correction.  Patch ids run row-major from the south-west
    corner, ascending; `patch_grid_shape` gives the rows and columns.
    """
    if landcover.classes.shape != dem.heights.shape:
        raise ConfigurationError(
            f"raster dimension mismatch: dem {dem.heights.shape} vs "
            f"landcover {landcover.classes.shape}")
    if abs(landcover.cell_size - dem.cell_size) > 1e-9:
        raise ConfigurationError("dem and landcover cell sizes differ")
    if patch_size < dem.cell_size - 1e-9:
        raise ConfigurationError(
            f"patch_size {patch_size} must be at least the cell size {dem.cell_size}")

    n_y, n_x = patch_grid_shape(dem, patch_size)

    jj, ii = np.meshgrid(np.arange(n_x), np.arange(n_y))  # ii south->north
    cx = (jj.ravel() + 0.5) * patch_size
    cy = (ii.ravel() + 0.5) * patch_size
    cz = dem.heights_at(cx, cy)

    # central differences at one cell spacing, one-sided at the borders
    h = dem.cell_size
    lo = 0.5 * h                       # innermost clamp hull of the node grid
    hi_x = (dem.ncols - 0.5) * h
    hi_y = (dem.nrows - 0.5) * h
    xp = np.minimum(cx + h, hi_x)
    xm = np.maximum(cx - h, lo)
    yp = np.minimum(cy + h, hi_y)
    ym = np.maximum(cy - h, lo)
    dx = xp - xm
    dy = yp - ym
    gx = np.where(dx > 0, (dem.heights_at(xp, cy) - dem.heights_at(xm, cy)) / np.where(dx > 0, dx, 1.0), 0.0)
    gy = np.where(dy > 0, (dem.heights_at(cx, yp) - dem.heights_at(cx, ym)) / np.where(dy > 0, dy, 1.0), 0.0)

    norm = np.sqrt(gx * gx + gy * gy + 1.0)
    nx, ny, nz = -gx / norm, -gy / norm, 1.0 / norm
    area = patch_size * patch_size / nz

    return PatchArrays(centers=np.column_stack([cx, cy, cz]),
                       normals=np.column_stack([nx, ny, nz]), areas=area,
                       classes=landcover.classes_at(cx, cy), ids=np.arange(cx.size))


def grazing_angles(patches: PatchArrays, observer: np.ndarray) -> np.ndarray:
    """Angle (rad) between each patch's center->observer ray and the
    local horizontal plane of the patch: arcsin of the ray's unit
    vector along the patch normal.  Positive when the observer is on
    the outward side; pi/2 for an observer straight along the normal."""
    los = np.asarray(observer, dtype=np.float64).reshape(1, 3) - patches.centers
    r = np.linalg.norm(los, axis=1)
    if np.any(r == 0.0):
        raise ConfigurationError("observer coincides with a patch center")
    s = np.einsum("ij,ij->i", los, patches.normals) / r
    return np.arcsin(np.clip(s, -1.0, 1.0))


def _los_step(dem: ElevationGrid, clearance: float, step: float | None) -> float:
    """The sample spacing of a line-of-sight query, after checking the
    query's clearance and spacing."""
    if step is None:
        step = dem.cell_size / 2.0
    if not step > 0:
        raise ConfigurationError(f"line-of-sight step must be positive, got {step}")
    if not math.isfinite(clearance):
        raise ConfigurationError(f"line-of-sight clearance must be finite, got {clearance}")
    return step


# lines_of_sight bounds the terrain under a sample by the highest node of
# its LOS_BLOCK-square block of DEM nodes and of the blocks east, south
# and south-east of it, which hold the c0 + 1 and r0 + 1 nodes of the
# bilinear stencil.  A run of samples that stays within LOS_REACH blocks
# of its first sample is bounded by the highest block bound within
# LOS_REACH blocks of that sample's block.
LOS_BLOCK = 4
LOS_REACH = 4
# Samples per chunk of lines_of_sight; with LOS_SPAN it fixes the
# working memory of each of its tasks.
LOS_CHUNK = 1 << 16
# Runs per span: lines_of_sight culls one span of runs at a time, and
# each span is one unit of work of the worker pool.
LOS_SPAN = 1 << 15
# heights_at blends up to four nodes with rounded weights and can land
# up to about 8 eps * max|h| above the highest of them; the block bound
# adds 64 eps * max|h|, so a sample above it cannot be blocked.
_BLEND_MARGIN_EPS = 64.0
# The per-ray sample window is solved in floating point and widened by
# this fraction of the coordinate magnitudes plus two samples, far more
# than the rounding of the samples' own arithmetic, so it holds every
# sample the exact per-sample test can keep.
_WINDOW_TOL = 1e-9
# t_i = i / (n + 1) is exact only while i and n + 1 are exact floats.
_MAX_RAY_SAMPLES = 2 ** 52


class LosBounds(NamedTuple):
    """Per-DEM height bounds of `lines_of_sight`."""

    fine: np.ndarray       # _block_bound, per LOS_BLOCK-square node block
    coarse: np.ndarray     # highest `fine` within LOS_REACH blocks
    top: float             # fine.max()
    magnitude: float       # abs(fine).max()


def _block_bound(dem: ElevationGrid) -> np.ndarray:
    """Upper bound on heights_at over each LOS_BLOCK-square node block,
    indexed [r0 // LOS_BLOCK, c0 // LOS_BLOCK] of the stencil's first
    node."""
    b = LOS_BLOCK
    rows, cols = -(-dem.nrows // b), -(-dem.ncols // b)
    padded = np.full((rows * b, cols * b), -np.inf)
    padded[:dem.nrows, :dem.ncols] = dem.heights
    # the block maximum as elementwise maxima of its b * b strided
    # phases, not a reduction over short inner axes
    phases = [padded[i::b, j::b] for i in range(b) for j in range(b)]
    top = phases[0].copy()
    for phase in phases[1:]:
        np.maximum(top, phase, out=top)
    top[:-1] = np.maximum(top[:-1], top[1:])
    top[:, :-1] = np.maximum(top[:, :-1], top[:, 1:])
    eps = np.finfo(np.float64).eps
    return top + _BLEND_MARGIN_EPS * eps * float(np.abs(dem.heights).max())


def _t_window(a, d, lo: float, hi: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Per ray, the range of t in which a + t * d lies in [lo - tol,
    hi + tol]; empty (t0 > t1) when it never does."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = (lo - tol - a) / d
        v = (hi + tol - a) / d
    t0 = np.where(d > 0, u, v)
    t1 = np.where(d > 0, v, u)
    inside = (a >= lo - tol) & (a <= hi + tol)
    flat = d == 0
    t0 = np.where(flat, np.where(inside, -np.inf, np.inf), t0)
    t1 = np.where(flat, np.where(inside, np.inf, -np.inf), t1)
    return t0, t1


def lines_of_sight(dem: ElevationGrid, observer, points,
                   clearance: float = 0.0, step: float | None = None) -> np.ndarray:
    """Boolean line of sight from one observer to each of `points`
    ((m, 3) ENU): True when the straight ray clears the terrain.

    The terrain is sampled between the endpoints on a uniform grid no
    coarser than `step` (default cell_size / 2): the n = max(0,
    ceil(horizontal distance / step) - 1) interior points of
    np.linspace(0, 1, n + 2), symmetric in the two endpoints.  The
    endpoints themselves are excluded, since both usually sit on or
    near the surface.  The ray is raised by `clearance` meters before
    the comparison with `heights_at`.  Either endpoint may lie outside
    the raster extent; samples off the raster see no terrain, so they
    cannot occlude.  The oracle in tests/oracles.py marches every
    sample, and each answer equals its answer.

    Only the samples that could be blocked are interpolated.  A ray is
    first narrowed to the contiguous window of samples near the raster
    and at or below the highest terrain.  The window is cut into runs
    of samples; a run goes on only if its lowest sample is at or below
    the bound of the blocks it can cross, and a sample of such a run is
    interpolated only if it is at or below the bound of the DEM nodes
    its interpolation reads.  The bounds are the
    grid's `los_bounds`, built once per grid.

    The runs are culled first, in spans of LOS_SPAN runs, and only the
    kept runs are expanded into samples, at most LOS_CHUNK at a time.
    A ray is blocked if any of its samples is, so the spans are
    independent: they run on every CPU through the shared worker pool
    (`workers.run_blocks`), and the answers are the same at any core
    count.
    """
    obs = np.asarray(observer, dtype=np.float64).reshape(3)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    step = _los_step(dem, clearance, step)
    if not (np.all(np.isfinite(obs)) and np.all(np.isfinite(pts))):
        raise ConfigurationError("line-of-sight endpoints must be finite")
    if len(pts) == 0:
        return np.ones(0, dtype=bool)
    d = pts - obs
    n = np.maximum(np.ceil(np.hypot(d[:, 0], d[:, 1]) / step) - 1.0, 0.0)
    if n.max() > _MAX_RAY_SAMPLES:
        raise ConfigurationError(f"a line-of-sight ray of {n.max():.3g} samples is too long")
    s = 1.0 / (n + 1.0)          # i * s is np.linspace(0, 1, n + 2)[i], bit for bit

    def sample(ray, i):
        t = i * s[ray]
        return (obs[0] + t * d[ray, 0], obs[1] + t * d[ray, 1],
                obs[2] + t * d[ray, 2] + clearance)

    fine, coarse, top, magnitude = dem.los_bounds
    # samples are at most `step` apart, so a run of this many moves less
    # than LOS_REACH * LOS_BLOCK - 2 nodes from its first sample
    run = 1 + int(min(LOS_CHUNK - 1, (LOS_REACH * LOS_BLOCK - 2) * dem.cell_size / step))

    # the window: on the raster and at or below the highest bound
    tol = _WINDOW_TOL * (1.0 + abs(clearance) + magnitude
                         + float(np.abs(obs).max()) + float(np.abs(pts).max())
                         + dem.extent_east + dem.extent_north)
    t0, t1 = _t_window(obs[2] + clearance, d[:, 2], -np.inf, top, tol)
    for axis, extent in ((0, dem.extent_east), (1, dem.extent_north)):
        u0, u1 = _t_window(obs[axis], d[:, axis], 0.0, extent, tol)
        t0 = np.maximum(t0, u0)
        t1 = np.minimum(t1, u1)
    with np.errstate(invalid="ignore", over="ignore"):
        first = np.maximum(np.ceil(t0 / s) - 2.0, 1.0)
        last = np.minimum(np.floor(t1 / s) + 2.0, n)
        count = np.where(last >= first, last - first + 1.0, 0.0).astype(np.int64)
    first = np.where(count > 0, first, 0.0).astype(np.int64)
    runs = -(-count // run)
    ends = np.cumsum(runs)
    total = int(ends[-1])

    # between two on-raster endpoints every sample is on the raster
    masked = ~(dem.within_extent(obs[0], obs[1]) & dem.within_extent(pts[:, 0], pts[:, 1]))
    per_chunk = LOS_CHUNK // run

    def blocked_rays(spans: range) -> np.ndarray:
        # allocated before the chunks, so it pins none of their memory
        blocked = np.zeros(len(pts), dtype=bool)
        for span in spans:
            # cull the span's runs against the coarse bound ...
            j0, j1 = span * LOS_SPAN, min(span * LOS_SPAN + LOS_SPAN, total)
            r0, r1 = np.searchsorted(ends, [j0, j1 - 1], side="right")
            # rays r0..r1 hold the span's runs, consecutive in ray order
            span_ends = ends[r0:r1 + 1]
            ray = np.repeat(np.arange(r0, r1 + 1), np.minimum(span_ends, j1)
                            - np.maximum(span_ends - runs[r0:r1 + 1], j0))
            j = np.arange(j0, j1)
            a = first[ray] + (j - (ends[ray] - runs[ray])) * run
            m = np.minimum(run, first[ray] + count[ray] - a)
            xa, ya, za = sample(ray, a)
            zb = sample(ray, a + m - 1)[2]
            fr, fc = dem.node_coords(xa, ya)
            near = np.minimum(za, zb) <= coarse[fr.astype(np.intp) // LOS_BLOCK,
                                                fc.astype(np.intp) // LOS_BLOCK]
            ray, a, m = ray[near], a[near], m[near]
            # ... then expand the kept runs, at most LOS_CHUNK samples at a time
            for lo in range(0, len(ray), per_chunk):
                part = slice(lo, lo + per_chunk)
                mp = m[part]
                r = np.repeat(ray[part], mp)
                xs, ys, ray_z = sample(r, np.repeat(a[part] - (np.cumsum(mp) - mp), mp)
                                       + np.arange(mp.sum()))
                fr, fc = dem.node_coords(xs, ys)
                near = ray_z <= fine[fr.astype(np.intp) // LOS_BLOCK,
                                     fc.astype(np.intp) // LOS_BLOCK]
                near &= ~masked[r] | dem.within_extent(xs, ys)
                k = np.flatnonzero(near)
                hit = dem.heights_at(xs[k], ys[k]) > ray_z[k]
                blocked[r[k[hit]]] = True
        return blocked

    return ~np.logical_or.reduce(run_blocks(blocked_rays, -(-total // LOS_SPAN)))


# --- file formats -----------------------------------------------------------
#
# Height and land-cover rasters share one text layout:
#
#   nrows N
#   ncols M
#   cellsize S
#   origin LAT LON
#   <N * M values, row-major, north-to-south>
#
# Values are whitespace-separated; blank lines and '#' comments are skipped.


def _read_raster_text(path) -> tuple[dict, list[str]]:
    header = {}
    values: list[str] = []
    expected = ("nrows", "ncols", "cellsize", "origin")
    with open(path, "r", encoding="utf-8") as f:
        lines = f.readlines()
    idx = 0
    seen = 0
    for idx, line in enumerate(lines):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if seen < len(expected):
            key = parts[0].lower()
            if key != expected[seen]:
                raise ConfigurationError(
                    f"{path}: line {idx + 1}: expected header '{expected[seen]}', got '{parts[0]}'")
            try:
                if key == "origin":
                    header["origin"] = (float(parts[1]), float(parts[2]))
                elif key == "cellsize":
                    header["cellsize"] = float(parts[1])
                else:
                    header[key] = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise ConfigurationError(f"{path}: line {idx + 1}: bad header line: {stripped!r}") from exc
            seen += 1
        else:
            values.extend(parts)
    if seen < len(expected):
        raise ConfigurationError(f"{path}: truncated header, stopped after {seen} of {len(expected)} lines")
    if header["nrows"] < 1 or header["ncols"] < 1:
        raise ConfigurationError(
            f"{path}: nrows and ncols must be at least 1, got {header['nrows']} x {header['ncols']}")
    n_expected = header["nrows"] * header["ncols"]
    if len(values) != n_expected:
        raise ConfigurationError(
            f"{path}: expected {n_expected} grid values, found {len(values)}")
    return header, values


def read_dem(path) -> ElevationGrid:
    header, values = _read_raster_text(path)
    try:
        heights = np.array([float(v) for v in values], dtype=np.float64)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: non-numeric height value") from exc
    heights = heights.reshape(header["nrows"], header["ncols"])
    lat, lon = header["origin"]
    return ElevationGrid(heights=heights, cell_size=header["cellsize"],
                         origin_lat=lat, origin_lon=lon)


def read_landcover(path) -> ClassGrid:
    header, values = _read_raster_text(path)
    try:
        classes = np.array([int(v) for v in values], dtype=np.int64)
    except ValueError as exc:
        raise ConfigurationError(f"{path}: non-integer land-cover code") from exc
    classes = classes.reshape(header["nrows"], header["ncols"])
    lat, lon = header["origin"]
    return ClassGrid(classes=classes, cell_size=header["cellsize"],
                     origin_lat=lat, origin_lon=lon)
