"""Scenario configuration: schema, text format, and built-in scenes.

Scenario files are line oriented, one `section.key = value` assignment
per line; `#` starts a comment.  Values are scalars, whitespace
separated vectors, or strings, fixed per key.  Unknown keys are
rejected with their line number.  Numbered groups (`target.1.position`)
declare targets, clutter discretes, and extra MIMO transmitters.

Two generated scenarios ship with the package: a littoral scene with
four moving targets (one deliberately weak) and two strong stationary
discretes, and the same scene with a 50 x 3 grid of small buildings
added next to the first target.  Their full-size data cube dimensions
are (30 CPIs, 32 channels, 64 pulses, 2334 range samples); a scale
factor shrinks CPIs, channels, and the fast-time window for desk-size
runs (pulse count stays fixed), each count rounding up.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

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


@dataclass
class TargetSpec:
    position: np.ndarray         # (3,) m ENU
    velocity: np.ndarray         # (3,) m/s
    rcs: float                   # m^2

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        self.velocity = np.asarray(self.velocity, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(self.position)) and np.all(np.isfinite(self.velocity))
                and math.isfinite(self.rcs)):
            raise ConfigurationError("target position, velocity and rcs must be finite")
        if self.rcs < 0:
            raise ConfigurationError(f"target rcs must be non-negative, got {self.rcs}")


@dataclass
class DiscreteSpec:
    """A strong stationary point scatterer that belongs to the clutter."""

    position: np.ndarray         # (3,) m ENU
    rcs: float                   # m^2

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(self.position)) and math.isfinite(self.rcs)):
            raise ConfigurationError("discrete position and rcs must be finite")
        if self.rcs < 0:
            raise ConfigurationError(f"discrete rcs must be non-negative, got {self.rcs}")


@dataclass
class BuildingGrid:
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

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(2)
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("building grid needs at least one row and column")
        if not np.all(np.isfinite(self.origin)):
            raise ConfigurationError("building origin must be finite")
        if not (0 < self.footprint < math.inf and 0 < self.height < math.inf):
            raise ConfigurationError("building footprint and height must be positive and finite")

    def centers(self) -> np.ndarray:
        """(rows * cols, 2) building centers, row-major from the SW corner."""
        jj, ii = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        cx = self.origin[0] + (jj.ravel() + 0.5) * self.footprint
        cy = self.origin[1] + (ii.ravel() + 0.5) * self.footprint
        return np.column_stack([cx, cy])


@dataclass
class Scenario:
    """Complete description of one simulation run."""

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
    targets: list[TargetSpec] = field(default_factory=list)
    discretes: list[DiscreteSpec] = field(default_factory=list)
    buildings: BuildingGrid | None = None
    mimo_tx: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    # run
    seed: int = 1

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

    def validate(self) -> None:
        for key, (kind, attr) in _KEYS.items():
            value = getattr(self, attr)
            if kind in (_FLOAT, _VEC3) and value is not None and not np.all(np.isfinite(value)):
                raise ConfigurationError(f"{key} must be finite")
        checks = [
            ("radar.carrier", self.carrier_hz > 0),
            ("radar.bandwidth", self.bandwidth_hz > 0),
            ("radar.prf", self.prf_hz > 0),
            ("radar.pulses", self.num_pulses >= 1),
            ("radar.channels", self.num_channels >= 1),
            ("radar.cpis", self.num_cpis >= 1),
            ("radar.sample_rate", self.sample_rate_hz >= 0),
            ("radar.pulse_duration", self.pulse_duration_s > 0),
            ("radar.noise_power", self.noise_power >= 0),
            ("radar.swath", self.swath_m > 0),
            ("radar.cpi_interval", self.cpi_interval_s >= 0),
            ("array.spacing", self.array_spacing_m >= 0),
            ("array.cosine_exponent", self.cosine_exponent >= 0),
            ("terrain.patch_size", self.patch_size_m > 0),
            ("ocean.wind_speed", self.wind_speed_mps >= 0),
            ("clutter.doppler_std", self.clutter_doppler_std_hz >= 0),
            ("sim.seed", self.seed >= 0),
        ]
        for key, ok in checks:
            if not ok:
                raise ConfigurationError(f"invalid value for {key}")
        if self.sample_rate < self.bandwidth_hz:
            raise ConfigurationError(
                "radar.sample_rate must be at least radar.bandwidth")
        if not math.isfinite(self.pulse_duration_s * self.sample_rate):
            raise ConfigurationError("radar.pulse_duration spans too many samples")


# --- text format -------------------------------------------------------------

_FLOAT = "float"
_INT = "int"
_VEC3 = "vec3"
_VEC2 = "vec2"
_STR = "str"
_BOOL = "bool"

# key -> (value type, Scenario attribute)
_KEYS: dict[str, tuple[str, str]] = {
    "scenario.name": (_STR, "name"),
    "radar.carrier": (_FLOAT, "carrier_hz"),
    "radar.bandwidth": (_FLOAT, "bandwidth_hz"),
    "radar.prf": (_FLOAT, "prf_hz"),
    "radar.pulses": (_INT, "num_pulses"),
    "radar.channels": (_INT, "num_channels"),
    "radar.cpis": (_INT, "num_cpis"),
    "radar.sample_rate": (_FLOAT, "sample_rate_hz"),
    "radar.pulse_duration": (_FLOAT, "pulse_duration_s"),
    "radar.noise_power": (_FLOAT, "noise_power"),
    "radar.swath": (_FLOAT, "swath_m"),
    "radar.cpi_interval": (_FLOAT, "cpi_interval_s"),
    "platform.tx_position": (_VEC3, "tx_position"),
    "platform.tx_velocity": (_VEC3, "tx_velocity"),
    "platform.rx_position": (_VEC3, "rx_position"),
    "platform.rx_velocity": (_VEC3, "rx_velocity"),
    "array.spacing": (_FLOAT, "array_spacing_m"),
    "array.axis": (_VEC3, "array_axis"),
    "array.boresight": (_VEC3, "boresight"),
    "array.cosine_exponent": (_FLOAT, "cosine_exponent"),
    "terrain.dem": (_STR, "dem_path"),
    "terrain.landcover": (_STR, "landcover_path"),
    "terrain.patch_size": (_FLOAT, "patch_size_m"),
    "scattering.table": (_STR, "scattering_path"),
    "scattering.band": (_STR, "band"),
    "ocean.wind_speed": (_FLOAT, "wind_speed_mps"),
    "ocean.wind_direction": (_FLOAT, "wind_direction_rad"),
    "clutter.doppler_std": (_FLOAT, "clutter_doppler_std_hz"),
    "clutter.deterministic_phase": (_BOOL, "deterministic_clutter_phase"),
    "sim.seed": (_INT, "seed"),
}

_GROUP_KEYS = {
    "target": {"position": _VEC3, "velocity": _VEC3, "rcs": _FLOAT},
    "discrete": {"position": _VEC3, "rcs": _FLOAT},
    "mimo": {"position": _VEC3, "velocity": _VEC3},
}

_BUILDING_KEYS = {
    "buildings.origin": (_VEC2, "origin"),
    "buildings.rows": (_INT, "rows"),
    "buildings.cols": (_INT, "cols"),
    "buildings.footprint": (_FLOAT, "footprint"),
    "buildings.height": (_FLOAT, "height"),
}

_REQUIRED = ("radar.carrier", "radar.prf")


def _parse_value(kind: str, raw: str, key: str, lineno: int):
    parts = raw.split()
    try:
        if kind == _FLOAT:
            (v,) = parts
            return float(v)
        if kind == _INT:
            (v,) = parts
            return int(v)
        if kind == _VEC3:
            x, y, z = parts
            return np.array([float(x), float(y), float(z)])
        if kind == _VEC2:
            x, y = parts
            return np.array([float(x), float(y)])
        if kind == _BOOL:
            (v,) = parts
            lv = v.lower()
            if lv in ("1", "true", "yes"):
                return True
            if lv in ("0", "false", "no"):
                return False
            raise ValueError(v)
        if kind == _STR:
            return raw.strip()
    except ValueError as exc:
        raise ConfigurationError(
            f"line {lineno}: bad value for {key}: {raw!r}") from exc
    raise ConfigurationError(f"line {lineno}: unhandled value kind {kind}")


def parse_scenario(text: str, base_dir=None) -> Scenario:
    """Parse scenario text; loads referenced raster/table files.

    `base_dir` resolves relative file references (defaults to the
    working directory).
    """
    import os

    scn = Scenario()
    seen: set[str] = set()
    groups: dict[tuple[str, int], dict[str, object]] = {}
    building_fields: dict[str, object] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if key in _KEYS:
            kind, attr = _KEYS[key]
            if key in seen:
                raise ConfigurationError(f"line {lineno}: duplicate key {key}")
            seen.add(key)
            setattr(scn, attr, _parse_value(kind, raw, key, lineno))
            continue
        if key in _BUILDING_KEYS:
            kind, attr = _BUILDING_KEYS[key]
            if attr in building_fields:
                raise ConfigurationError(f"line {lineno}: duplicate key {key}")
            building_fields[attr] = _parse_value(kind, raw, key, lineno)
            continue
        parts = key.split(".")
        if len(parts) == 3 and parts[0] in _GROUP_KEYS and parts[1].isdigit():
            group, idx, fieldname = parts[0], int(parts[1]), parts[2]
            fields = _GROUP_KEYS[group]
            if fieldname not in fields:
                raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
            slot = groups.setdefault((group, idx), {})
            if fieldname in slot:
                raise ConfigurationError(f"line {lineno}: duplicate key {key}")
            slot[fieldname] = _parse_value(fields[fieldname], raw, key, lineno)
            continue
        raise ConfigurationError(f"line {lineno}: unknown key {key!r}")

    for req in _REQUIRED:
        if req not in seen:
            raise ConfigurationError(f"missing required key {req}")

    for (group, idx) in sorted(groups):
        slot = groups[(group, idx)]
        if group == "target":
            if "position" not in slot or "rcs" not in slot:
                raise ConfigurationError(f"target.{idx} needs position and rcs")
            scn.targets.append(TargetSpec(position=slot["position"],
                                          velocity=slot.get("velocity", np.zeros(3)),
                                          rcs=slot["rcs"]))
        elif group == "discrete":
            if "position" not in slot or "rcs" not in slot:
                raise ConfigurationError(f"discrete.{idx} needs position and rcs")
            scn.discretes.append(DiscreteSpec(position=slot["position"], rcs=slot["rcs"]))
        elif group == "mimo":
            if "position" not in slot:
                raise ConfigurationError(f"mimo.{idx} needs position")
            scn.mimo_tx.append((slot["position"], slot.get("velocity", np.zeros(3))))

    if building_fields:
        for needed in ("origin", "rows", "cols"):
            if needed not in building_fields:
                raise ConfigurationError(f"buildings group needs buildings.{needed}")
        scn.buildings = BuildingGrid(**building_fields)

    def _resolve(p: str) -> str:
        if base_dir is not None and not os.path.isabs(p):
            return os.path.join(os.fspath(base_dir), p)
        return p

    try:
        if scn.dem_path:
            scn.dem = read_dem(_resolve(scn.dem_path))
        if scn.landcover_path:
            scn.landcover = read_landcover(_resolve(scn.landcover_path))
        if scn.scattering_path:
            scn.scattering_table = scattering.read_scattering_table(_resolve(scn.scattering_path))
    except FileNotFoundError as exc:
        raise ConfigurationError(f"referenced file not found: {exc.filename}") from exc
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read referenced file {exc.filename}: {exc.strerror}") from exc

    scn.validate()
    return scn


def load_scenario(path) -> Scenario:
    import os
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
    lines = []
    for key, (kind, attr) in _KEYS.items():
        v = getattr(scn, attr)
        if v is None:
            continue
        lines.append(f"{key} = {_fmt(v)}")
    for i, t in enumerate(scn.targets, start=1):
        lines.append(f"target.{i}.position = {_fmt(t.position)}")
        lines.append(f"target.{i}.velocity = {_fmt(t.velocity)}")
        lines.append(f"target.{i}.rcs = {_fmt(t.rcs)}")
    for i, d in enumerate(scn.discretes, start=1):
        lines.append(f"discrete.{i}.position = {_fmt(d.position)}")
        lines.append(f"discrete.{i}.rcs = {_fmt(d.rcs)}")
    for i, (pos, vel) in enumerate(scn.mimo_tx, start=1):
        lines.append(f"mimo.{i}.position = {_fmt(pos)}")
        lines.append(f"mimo.{i}.velocity = {_fmt(vel)}")
    if scn.buildings is not None:
        b = scn.buildings
        lines.append(f"buildings.origin = {_fmt(b.origin)}")
        lines.append(f"buildings.rows = {_fmt(b.rows)}")
        lines.append(f"buildings.cols = {_fmt(b.cols)}")
        lines.append(f"buildings.footprint = {_fmt(b.footprint)}")
        lines.append(f"buildings.height = {_fmt(b.height)}")
    return "\n".join(lines) + "\n"


def scenario_hash(scn: Scenario) -> str:
    """SHA-256 of the canonical text plus any inline rasters.

    Whitespace and comments never affect the hash; any semantic field
    change does.
    """
    h = hashlib.sha256()
    h.update(scenario_text(scn).encode("utf-8"))
    # the rasters are hashed through memoryviews, without a bytes copy
    if scn.dem is not None:
        h.update(memoryview(np.ascontiguousarray(scn.dem.heights, dtype="<f8")).cast("B"))
        h.update(np.float64(scn.dem.cell_size).tobytes())
    if scn.landcover is not None:
        h.update(memoryview(np.ascontiguousarray(scn.landcover.classes, dtype="<i8")).cast("B"))
    return h.hexdigest()


# --- built-in scenes ---------------------------------------------------------

_COAST_X = 6000.0           # m, water west of this line
_SCENE_CELLS = 667          # 30 m cells -> 20.01 km extent
_SCENE_CELL_SIZE = 30.0


def littoral_dem() -> tuple[ElevationGrid, ClassGrid]:
    """Synthetic coastal scene of _SCENE_CELLS x _SCENE_CELLS cells of
    _SCENE_CELL_SIZE m: water to the west, rolling terrain with one
    dominant hill inland, forest and urban pockets on land."""
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
        targets=[
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
        ],
        discretes=[
            DiscreteSpec(position=np.array([8600.0, 2600.0, 40.0]), rcs=3000.0),
            DiscreteSpec(position=np.array([9800.0, 5200.0, 55.0]), rcs=2500.0),
        ],
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
