"""Scenario configuration: schema, text format, and built-in scenes.

Scenario files are line oriented, one `section.key = value` assignment
per line; `#` starts a comment.  Values are scalars, whitespace
separated vectors, or strings, fixed per key.  Unknown keys are
rejected with their line number.  Groups declare numbered targets
(`target.1.position`), clutter discretes and extra MIMO transmitters,
and one block of buildings (`buildings.rows`).

The schema is two tables: `_KEYS` gives each key its value kind, its
`Scenario` field and its bound, and `_GROUPS` gives each group its
`Scenario` field, its spec class and its members' kinds and bounds, in
canonical order.  The parser, the canonical writer and the checks all
read them.  `Scenario` and the group specs are frozen and check
themselves at construction, so a scenario that is built, parsed or
`dataclasses.replace`d holds every number finite and within its bound,
and every `mimo.N` transmitter at or above the ground.

Two generated scenarios ship with the package: a littoral scene with
four moving targets (one deliberately weak) and two strong stationary
discretes, and the same scene with a 50 x 3 grid of small buildings
added next to the first target.  Their full-size data cube dimensions
are (30 CPIs, 32 channels, 64 pulses, 2334 range samples); a scale
factor shrinks CPIs, channels, and the fast-time window for desk-size
runs (pulse count stays fixed), each count rounding up.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import scattering
from .channel import SPEED_OF_LIGHT, RadarTiming
from .errors import ConfigurationError
from .terrain import ClassGrid, ElevationGrid, read_dem, read_landcover

# Full-size cube dimensions and the scale rule that shrinks them.
FULL_CPIS = 30
FULL_CHANNELS = 32
FULL_PULSES = 64
FULL_WAVEFORM_SAMPLES = 100
FULL_WINDOW_TAPS = 2235     # + waveform samples - 1 = 2334 range samples
DESK_SCALE = 0.125


def scaled_count(full: int, scale: float) -> int:
    """Scale a full-size count: multiply and round up (guarded so exact
    products stay exact)."""
    if not 0.0 < scale <= 1.0:
        raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
    return max(1, math.ceil(full * scale - 1e-9))


# --- value kinds and bounds --------------------------------------------------

_FLOAT = "float"
_INT = "int"
_VEC3 = "vec3"
_VEC2 = "vec2"
_STR = "str"
_BOOL = "bool"

_BOUNDS = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1}


def _checked(value, kind: str, bound: str | None, name: str):
    """`value` of its kind: a vector as a read-only float64 copy, every
    number finite and within `bound`, else a ConfigurationError naming
    `name`."""
    if kind in (_VEC3, _VEC2):
        value = np.array(value, dtype=np.float64).reshape(3 if kind == _VEC3 else 2)
        value.setflags(write=False)
    if kind in (_FLOAT, _VEC3, _VEC2) and not np.all(np.isfinite(value)):
        raise ConfigurationError(f"{name} must be finite")
    if bound is not None and not _BOUNDS[bound](value):
        raise ConfigurationError(f"{name} must be {bound}, got {value}")
    return value


class _Spec:
    """A group's value, its members checked against `_GROUPS` at construction."""

    def __post_init__(self):
        group = next(g for g, (_, spec, _) in _GROUPS.items() if spec is type(self))
        for name, (kind, bound) in _GROUPS[group][2].items():
            object.__setattr__(self, name, _checked(getattr(self, name), kind, bound,
                                                    f"{group}.{name}"))


@dataclass(frozen=True, eq=False, kw_only=True)
class TargetSpec(_Spec):
    position: np.ndarray         # (3,) m ENU
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))   # (3,) m/s
    rcs: float                   # m^2


@dataclass(frozen=True, eq=False, kw_only=True)
class DiscreteSpec(_Spec):
    """A strong stationary point scatterer that belongs to the clutter."""

    position: np.ndarray         # (3,) m ENU
    rcs: float                   # m^2


@dataclass(frozen=True, eq=False, kw_only=True)
class TransmitterSpec(_Spec):
    """An extra MIMO transmitter: its position at time 0 and its constant
    velocity, checked as `terrain.PlatformState` checks a platform."""

    position: np.ndarray         # (3,) m ENU
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))   # (3,) m/s

    def __post_init__(self):
        super().__post_init__()
        if self.position[2] < 0:
            raise ConfigurationError("mimo.N.position altitude must be non-negative")


@dataclass(frozen=True, eq=False, kw_only=True)
class BuildingGrid(_Spec):
    """Rectangular block of identical buildings.

    Buildings raise the local terrain by `height` and scatter as
    strongly reflective patches (land-cover class
    `scattering.BUILDING`) of `footprint` x `footprint` m.
    """

    origin: np.ndarray           # (2,) m, SW corner of the block
    rows: int                    # count along north
    cols: int                    # count along east
    footprint: float = 30.0      # m
    height: float = 6.0          # m

    def centers(self) -> np.ndarray:
        """(rows * cols, 2) building centers, row-major from the SW corner."""
        jj, ii = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        cx = self.origin[0] + (jj.ravel() + 0.5) * self.footprint
        cy = self.origin[1] + (ii.ravel() + 0.5) * self.footprint
        return np.column_stack([cx, cy])


@dataclass(frozen=True, eq=False)
class Scenario:
    """Complete description of one simulation run, checked at
    construction against `_KEYS` and `_GROUPS`."""

    name: str = "scenario"
    # radar
    carrier_hz: float = 10.0e9
    bandwidth_hz: float = 5.0e6
    prf_hz: float = 2100.0
    num_pulses: int = 64
    num_channels: int = 1
    num_cpis: int = 1
    sample_rate_hz: float = 0.0      # 0 -> bandwidth
    pulse_duration_s: float = 20.0e-6
    noise_power: float = 0.0         # complex variance per sample
    swath_m: float = 20.0e3          # receive window as a monostatic ground swath
    cpi_interval_s: float = 0.0      # time between CPI starts; 0 -> contiguous
    # platforms
    tx_position: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1000.0]))
    tx_velocity: np.ndarray = field(default_factory=lambda: np.array([0.0, 125.0, 0.0]))
    rx_position: np.ndarray | None = None    # None -> monostatic (= tx)
    rx_velocity: np.ndarray | None = None
    # receive array
    array_spacing_m: float = 0.0     # 0 -> wavelength / 2
    array_axis: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0, 0.0]))
    boresight: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    cosine_exponent: float = 1.0
    # scene
    dem_path: str = ""
    landcover_path: str = ""
    dem: ElevationGrid | None = None
    landcover: ClassGrid | None = None
    patch_size_m: float = 30.0
    band: str = "X"
    scattering_path: str = ""
    scattering_table: scattering.ScatteringTable | None = None
    # dynamics
    wind_speed_mps: float = 0.0
    wind_direction_rad: float = 0.0
    clutter_doppler_std_hz: float = 0.0
    deterministic_clutter_phase: bool = False
    # content
    targets: tuple[TargetSpec, ...] = ()
    discretes: tuple[DiscreteSpec, ...] = ()
    buildings: BuildingGrid | None = None
    mimo_tx: tuple[TransmitterSpec, ...] = ()
    # run
    seed: int = 1

    def __post_init__(self):
        for key, (kind, attr, bound) in _KEYS.items():
            value = getattr(self, attr)
            if value is not None:
                object.__setattr__(self, attr, _checked(value, kind, bound, key))
        for group, (attr, spec, _) in _GROUPS.items():
            if group.endswith(".N"):
                object.__setattr__(self, attr, tuple(getattr(self, attr)))
            if not all(isinstance(s, spec) for s in _specs(self, group)):
                raise ConfigurationError(f"{attr} must hold {spec.__name__}s")
        if self.rx_velocity is not None and self.rx_position is None:
            raise ConfigurationError("platform.rx_velocity needs platform.rx_position; "
                                     "a monostatic receiver moves with the transmitter")
        if self.sample_rate < self.bandwidth_hz:
            raise ConfigurationError(
                "radar.sample_rate must be at least radar.bandwidth")
        if not math.isfinite(self.pulse_duration_s * self.sample_rate):
            raise ConfigurationError("radar.pulse_duration spans too many samples")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def sample_rate(self) -> float:
        return self.sample_rate_hz if self.sample_rate_hz > 0 else self.bandwidth_hz

    @property
    def cpi_interval(self) -> float:
        return self.cpi_interval_s if self.cpi_interval_s > 0 else self.num_pulses / self.prf_hz

    def timing(self) -> RadarTiming:
        return RadarTiming.for_swath(prf=self.prf_hz, sample_rate=self.sample_rate,
                                     num_pulses=self.num_pulses, swath=self.swath_m)

    @property
    def num_waveform_samples(self) -> int:
        return max(1, round(self.pulse_duration_s * self.sample_rate))

    @property
    def export_dims(self) -> tuple[int, int, int, int]:
        """(CPIs, channels, pulses, range samples) of the exported cubes."""
        return (self.num_cpis, self.num_channels, self.num_pulses,
                self.timing().num_taps + self.num_waveform_samples - 1)

    def table(self) -> scattering.ScatteringTable:
        if self.scattering_table is not None:
            return self.scattering_table
        return scattering.default_table()


# --- the schema --------------------------------------------------------------

# key -> (value kind, Scenario field, bound)
_KEYS: dict[str, tuple[str, str, str | None]] = {
    "scenario.name": (_STR, "name", None),
    "radar.carrier": (_FLOAT, "carrier_hz", "> 0"),
    "radar.bandwidth": (_FLOAT, "bandwidth_hz", "> 0"),
    "radar.prf": (_FLOAT, "prf_hz", "> 0"),
    "radar.pulses": (_INT, "num_pulses", ">= 1"),
    "radar.channels": (_INT, "num_channels", ">= 1"),
    "radar.cpis": (_INT, "num_cpis", ">= 1"),
    "radar.sample_rate": (_FLOAT, "sample_rate_hz", ">= 0"),
    "radar.pulse_duration": (_FLOAT, "pulse_duration_s", "> 0"),
    "radar.noise_power": (_FLOAT, "noise_power", ">= 0"),
    "radar.swath": (_FLOAT, "swath_m", "> 0"),
    "radar.cpi_interval": (_FLOAT, "cpi_interval_s", ">= 0"),
    "platform.tx_position": (_VEC3, "tx_position", None),
    "platform.tx_velocity": (_VEC3, "tx_velocity", None),
    "platform.rx_position": (_VEC3, "rx_position", None),
    "platform.rx_velocity": (_VEC3, "rx_velocity", None),
    "array.spacing": (_FLOAT, "array_spacing_m", ">= 0"),
    "array.axis": (_VEC3, "array_axis", None),
    "array.boresight": (_VEC3, "boresight", None),
    "array.cosine_exponent": (_FLOAT, "cosine_exponent", ">= 0"),
    "terrain.dem": (_STR, "dem_path", None),
    "terrain.landcover": (_STR, "landcover_path", None),
    "terrain.patch_size": (_FLOAT, "patch_size_m", "> 0"),
    "scattering.table": (_STR, "scattering_path", None),
    "scattering.band": (_STR, "band", None),
    "ocean.wind_speed": (_FLOAT, "wind_speed_mps", ">= 0"),
    "ocean.wind_direction": (_FLOAT, "wind_direction_rad", None),
    "clutter.doppler_std": (_FLOAT, "clutter_doppler_std_hz", ">= 0"),
    "clutter.deterministic_phase": (_BOOL, "deterministic_clutter_phase", None),
    "sim.seed": (_INT, "seed", ">= 0"),
}

_REQUIRED = ("radar.carrier", "radar.prf")

# group -> (Scenario field, spec class, member -> (value kind, bound)), in
# canonical order; a group ending in ".N" is numbered (`target.1.rcs`) and
# its field holds a tuple of specs, the others hold one spec or None.
# A member with a default in its spec class is optional.
_GROUPS: dict[str, tuple[str, type, dict[str, tuple[str, str | None]]]] = {
    "target.N": ("targets", TargetSpec, {"position": (_VEC3, None),
                                         "velocity": (_VEC3, None),
                                         "rcs": (_FLOAT, ">= 0")}),
    "discrete.N": ("discretes", DiscreteSpec, {"position": (_VEC3, None),
                                               "rcs": (_FLOAT, ">= 0")}),
    "mimo.N": ("mimo_tx", TransmitterSpec, {"position": (_VEC3, None),
                                            "velocity": (_VEC3, None)}),
    "buildings": ("buildings", BuildingGrid, {"origin": (_VEC2, None),
                                              "rows": (_INT, ">= 1"),
                                              "cols": (_INT, ">= 1"),
                                              "footprint": (_FLOAT, "> 0"),
                                              "height": (_FLOAT, "> 0")}),
}


def _specs(scn: Scenario, group: str) -> tuple:
    """The specs that `scn` holds for `group`, in order."""
    value = getattr(scn, _GROUPS[group][0])
    if group.endswith(".N"):
        return value
    return () if value is None else (value,)


# --- text format -------------------------------------------------------------

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_value(kind: str, raw: str, key: str, lineno: int):
    if kind == _STR:
        return raw.strip()
    parts = raw.split()
    try:
        if len(parts) != {_VEC3: 3, _VEC2: 2}.get(kind, 1):
            raise ValueError(f"{len(parts)} fields")
        if kind == _INT:
            return int(parts[0])
        if kind == _BOOL:
            return _BOOLS[parts[0].lower()]
        numbers = [float(p) for p in parts]
    except (ValueError, KeyError) as exc:
        raise ConfigurationError(
            f"line {lineno}: bad value for {key}: {raw!r}") from exc
    return numbers[0] if kind == _FLOAT else np.array(numbers)


def parse_scenario(text: str, base_dir=None) -> Scenario:
    """Parse scenario text; loads referenced raster/table files.

    `base_dir` resolves relative file references (defaults to the
    working directory).
    """
    values: dict[str, object] = {}      # Scenario field -> value
    members: dict[tuple[str, int], dict[str, object]] = {}   # (group, index) -> values

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        prefix, _, name = key.rpartition(".")
        head, _, index = prefix.partition(".")
        group = head if not index else f"{head}.N" if index.isdecimal() else None
        if key in _KEYS:
            kind, name, _ = _KEYS[key]
            slot = values
        elif group in _GROUPS and name in _GROUPS[group][2]:
            kind, _ = _GROUPS[group][2][name]
            slot = members.setdefault((group, int(index or 0)), {})
        else:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if name in slot:
            raise ConfigurationError(f"line {lineno}: duplicate key {key}")
        slot[name] = _parse_value(kind, raw, key, lineno)

    for req in _REQUIRED:
        if _KEYS[req][1] not in values:
            raise ConfigurationError(f"missing required key {req}")

    for (group, index), slot in sorted(members.items()):
        attr, spec, _ = _GROUPS[group]
        prefix = group.replace(".N", f".{index}")
        missing = [f"{prefix}.{f.name}" for f in fields(spec) if f.name not in slot
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigurationError(f"{prefix} needs {' and '.join(missing)}")
        if group.endswith(".N"):
            values.setdefault(attr, []).append(spec(**slot))
        else:
            values[attr] = spec(**slot)

    def _resolve(p: str) -> str:
        if base_dir is not None and not os.path.isabs(p):
            return os.path.join(os.fspath(base_dir), p)
        return p

    try:
        for path_field, attr, read in (("dem_path", "dem", read_dem),
                                       ("landcover_path", "landcover", read_landcover),
                                       ("scattering_path", "scattering_table",
                                        scattering.read_scattering_table)):
            if values.get(path_field):
                values[attr] = read(_resolve(values[path_field]))
    except FileNotFoundError as exc:
        raise ConfigurationError(f"referenced file not found: {exc.filename}") from exc
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read referenced file {exc.filename}: {exc.strerror}") from exc

    return Scenario(**values)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return parse_scenario(text, base_dir=os.path.dirname(os.fspath(path)) or ".")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.ndarray):
        return " ".join(repr(float(x)) for x in v)
    return str(v)


def scenario_text(scn: Scenario) -> str:
    """Canonical text form: every key, fixed order, normalized numbers.

    parse_scenario(scenario_text(s)) reproduces s (raster payloads are
    carried by the referenced files, not the text).
    """
    lines = [f"{key} = {_fmt(getattr(scn, attr))}" for key, (_, attr, _) in _KEYS.items()
             if getattr(scn, attr) is not None]
    for group, (_, _, kinds) in _GROUPS.items():
        for i, spec in enumerate(_specs(scn, group), start=1):
            prefix = group.replace(".N", f".{i}")
            lines.extend(f"{prefix}.{name} = {_fmt(getattr(spec, name))}" for name in kinds)
    return "\n".join(lines) + "\n"


def scenario_hash(scn: Scenario) -> str:
    """SHA-256 of the canonical text plus any inline rasters and any
    reflectivity table's entries.

    Whitespace and comments never affect the hash, nor does the order
    of a table's lines; any semantic field change does, and so does
    any change to a table entry.
    """
    h = hashlib.sha256()
    h.update(scenario_text(scn).encode("utf-8"))
    # the rasters are hashed through memoryviews, without a bytes copy
    if scn.dem is not None:
        h.update(memoryview(np.ascontiguousarray(scn.dem.heights, dtype="<f8")).cast("B"))
        h.update(np.float64(scn.dem.cell_size).tobytes())
    if scn.landcover is not None:
        h.update(memoryview(np.ascontiguousarray(scn.landcover.classes, dtype="<i8")).cast("B"))
    if scn.scattering_table is not None:
        # one line per entry in (class, band) order, every number in repr form
        for (cls, band), e in sorted(scn.scattering_table.entries.items()):
            numbers = " ".join(repr(float(v)) for v in (e.gamma_db, *e.poly_db))
            h.update(f"{cls} {band} {numbers}\n".encode("utf-8"))
    return h.hexdigest()


# --- built-in scenes ---------------------------------------------------------

_COAST_X = 6000.0           # m, water west of this line
_SCENE_CELLS = 667          # 30 m cells -> 20.01 km extent
_SCENE_CELL_SIZE = 30.0


@functools.cache
def littoral_dem() -> tuple[ElevationGrid, ClassGrid]:
    """Synthetic coastal scene of _SCENE_CELLS x _SCENE_CELLS cells of
    _SCENE_CELL_SIZE m: water to the west, rolling terrain with one
    dominant hill inland, forest and urban pockets on land.

    No seed or scale changes the site, so it is built once per process,
    on first use, and every preset shares the same two grids.  Their
    rasters are read-only and the grids frozen, so no caller can change
    the site under another; the elevation grid builds its `los_bounds`
    once, for all of them.  The cache holds one site: 7.1 MB of rasters
    plus 0.45 MB of those bounds.
    """
    cells, cell_size = _SCENE_CELLS, _SCENE_CELL_SIZE
    # each term depends on x alone or y alone until the products, sums
    # and the hill's exponential combine them, so the terms are evaluated
    # on 1-D axes and broadcast: x varies along a row, y down a column
    c = np.arange(cells)
    x = (c + 0.5) * cell_size
    y = (((cells - 1 - c) + 0.5) * cell_size)[:, None]   # row 0 = north

    land = x >= _COAST_X
    inland = np.maximum(0.0, x - _COAST_X)
    rolling = 12.0 * (1.0 + np.sin(x / 900.0) * np.sin(y / 700.0))
    ramp = 0.004 * inland
    hill = 350.0 * np.exp(-(((x - 14000.0) ** 2) + ((y - 12000.0) ** 2)) / (2.0 * 1800.0 ** 2))
    heights = np.where(land, ramp + rolling + hill, 0.0)

    classes = np.full((cells, cells), scattering.GRASS, dtype=np.int64)
    classes[:, ~land] = scattering.WATER
    forest = land & (np.sin(x / 1500.0 + 1.0) * np.sin(y / 1100.0) > 0.55)
    classes[forest] = scattering.FOREST
    urban = land & (x > 8000.0) & (x < 9500.0) & (y > 8000.0) & (y < 12000.0)
    classes[urban] = scattering.URBAN
    for raster in (heights, classes):
        raster.setflags(write=False)         # the grids adopt them without a copy
    dem = ElevationGrid(heights=heights, cell_size=cell_size)
    lc = ClassGrid(classes=classes, cell_size=cell_size)
    return dem, lc


def generate_scenario1(scale: float = DESK_SCALE, seed: int = 1) -> Scenario:
    """Littoral surveillance scene: four movers (one weak) plus two
    strong stationary clutter discretes.

    At scale 1 the export dimensions are (30, 32, 64, 2334); smaller
    scales shrink CPIs, channels, and the fast-time window, pulse count
    fixed.  The platform flies north along the coast looking east; the
    weak target sits far enough up-track that the beam only reaches it
    in the later CPIs.
    """
    cpis = scaled_count(FULL_CPIS, scale)
    channels = scaled_count(FULL_CHANNELS, scale)
    wf_samples = scaled_count(FULL_WAVEFORM_SAMPLES, scale)
    window_taps = scaled_count(FULL_WINDOW_TAPS, scale)

    sample_rate = 5.0e6
    swath = window_taps * SPEED_OF_LIGHT / (2.0 * sample_rate)
    dem, lc = littoral_dem()

    # patch size grows as the scene coarsens so the patch count stays
    # tractable on a desk run (full scale: 667^2 patches of 30 m)
    patch_size = _SCENE_CELL_SIZE / scale

    y0 = 2000.0
    scn = Scenario(
        name="littoral-movers",
        carrier_hz=10.0e9,
        bandwidth_hz=5.0e6,
        prf_hz=2100.0,
        num_pulses=FULL_PULSES,
        num_channels=channels,
        num_cpis=cpis,
        sample_rate_hz=sample_rate,
        pulse_duration_s=wf_samples / sample_rate,
        noise_power=3.0e-20,
        swath_m=swath,
        cpi_interval_s=8.0,
        tx_position=np.array([3000.0, y0, 800.0]),
        tx_velocity=np.array([0.0, 25.0, 0.0]),
        array_axis=np.array([0.0, 1.0, 0.0]),
        boresight=np.array([1.0, 0.0, 0.0]),
        cosine_exponent=1.0,
        dem=dem,
        landcover=lc,
        patch_size_m=patch_size,
        wind_speed_mps=0.0,
        # Boats sit offshore (west of the 6 km coastline) with radial
        # speeds that put them past the mainlobe clutter ridge.
        targets=(
            # 1: fast boat the beam sweeps onto mid-run
            TargetSpec(position=np.array([4700.0, 2850.0, 0.0]),
                       velocity=np.array([16.0, 0.0, 0.0]), rcs=200.0),
            # 2: westbound boat near the boresight line at the first CPI
            TargetSpec(position=np.array([4600.0, 2050.0, 0.0]),
                       velocity=np.array([-14.0, 0.0, 0.0]), rcs=150.0),
            # 3: low helicopter paralleling the platform, visible throughout
            TargetSpec(position=np.array([5500.0, 2150.0, 150.0]),
                       velocity=np.array([14.0, 25.0, 0.0]), rcs=180.0),
            # 4: weak mover placed in the array pattern null at the first
            #    CPI; the advancing beam reaches it in the later CPIs
            TargetSpec(position=np.array([3900.0, 2700.0, 0.0]),
                       velocity=np.array([16.0, 0.0, 0.0]), rcs=8.0),
        ),
        discretes=(
            DiscreteSpec(position=np.array([8600.0, 2600.0, 40.0]), rcs=3000.0),
            DiscreteSpec(position=np.array([9800.0, 5200.0, 55.0]), rcs=2500.0),
        ),
        seed=seed,
    )
    return scn


def generate_scenario2(scale: float = DESK_SCALE, seed: int = 1) -> Scenario:
    """Scenario 1 plus a 50 x 3 block of small buildings (30 m x 30 m
    footprint, 6 m tall) lining the shore across from the boat lanes.

    The block raises the terrain under each building, so it shadows
    patches behind it as well as scattering strongly itself.
    """
    scn = generate_scenario1(scale=scale, seed=seed)
    buildings = BuildingGrid(
        origin=np.array([6200.0, 2200.0]),
        rows=50, cols=3, footprint=30.0, height=6.0,
    )
    return replace(scn, name="littoral-movers-buildings", buildings=buildings)
