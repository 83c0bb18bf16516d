"""Scenario text format: parsing, canonical echo, hashing, built-in scenes."""

from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfclutter.errors import ConfigurationError
from rfclutter.pipeline import build_scene
from rfclutter.scenario import (_GROUPS, _KEYS, DESK_SCALE,
                                Scenario, TargetSpec,
                                generate_scenario1, generate_scenario2,
                                littoral_dem, load_scenario, parse_scenario,
                                scaled_count, scenario_hash, scenario_text)
from rfclutter.scattering import BUILDING, FOREST, GRASS, URBAN, WATER
from rfclutter.terrain import ClassGrid, ElevationGrid

from oracles import write_dem, write_landcover

MINIMAL = "radar.carrier = 10e9\nradar.prf = 2000\n"


def test_scaled_count_rule():
    assert scaled_count(30, 1.0) == 30
    assert scaled_count(30, 0.125) == 4      # ceil(3.75)
    assert scaled_count(30, 1 / 32) == 1
    assert scaled_count(2235, 1 / 32) == 70
    assert scaled_count(64, 0.125) == 8
    # exact products must not tip up a bin from float dust
    assert scaled_count(32, 0.125) == 4
    with pytest.raises(ConfigurationError):
        scaled_count(10, 0.0)
    with pytest.raises(ConfigurationError):
        scaled_count(10, 1.5)


def test_minimal_scenario_parses_with_defaults():
    scn = parse_scenario(MINIMAL)
    assert scn.carrier_hz == 10e9
    assert scn.prf_hz == 2000.0
    assert scn.sample_rate == scn.bandwidth_hz   # 0 -> bandwidth fallback
    assert scn.rx_position is None               # monostatic by default
    assert scn.targets == () and scn.buildings is None


def test_full_key_set_round_trips():
    text = MINIMAL + """
scenario.name = roundtrip
radar.bandwidth = 4e6
radar.pulses = 16
radar.channels = 3
radar.cpis = 2
radar.sample_rate = 8e6
radar.pulse_duration = 4e-6
radar.noise_power = 0.25
radar.swath = 9000
platform.tx_position = 0 -500 1200
platform.tx_velocity = 0 100 0
platform.rx_position = 50 0 1100
array.spacing = 0.02
array.axis = 0 1 0
array.boresight = 1 0 0
array.cosine_exponent = 2
terrain.patch_size = 45
ocean.wind_speed = 7.5
ocean.wind_direction = 1.2
clutter.doppler_std = 3.0
clutter.deterministic_phase = yes
sim.seed = 99
target.1.position = 4000 200 0
target.1.velocity = -10 5 0
target.1.rcs = 12
discrete.1.position = 3000 0 0
discrete.1.rcs = 500
mimo.1.position = 0 800 1200
mimo.1.velocity = 0 100 0
buildings.origin = 5000 -300
buildings.rows = 2
buildings.cols = 3
buildings.footprint = 25
buildings.height = 8
"""
    scn = parse_scenario(text)
    assert scn.name == "roundtrip"
    assert scn.num_channels == 3
    assert scn.deterministic_clutter_phase is True
    np.testing.assert_array_equal(scn.rx_position, [50, 0, 1100])
    assert len(scn.targets) == 1 and scn.targets[0].rcs == 12.0
    assert len(scn.discretes) == 1 and scn.discretes[0].rcs == 500.0
    assert len(scn.mimo_tx) == 1
    assert len(scn.buildings.centers()) == 6

    # canonical echo reparses to an identical scenario (hash equality)
    echoed = parse_scenario(scenario_text(scn))
    assert scenario_hash(echoed) == scenario_hash(scn)


def test_parse_error_reports_line_numbers():
    with pytest.raises(ConfigurationError, match="line 3"):
        parse_scenario("radar.carrier = 10e9\nradar.prf = 2000\nbogus.key = 1\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_scenario("radar.carrier = 10e9\nradar.prf = two thousand\n")
    with pytest.raises(ConfigurationError, match="line 3"):
        parse_scenario("radar.carrier = 10e9\nradar.prf = 2000\nradar.prf = 2100\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_scenario("radar.carrier = 10e9\nno equals sign here\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        parse_scenario("radar.carrier = 10e9\nplatform.tx_position = 1 2\n")
    # a superscript digit is a digit to str.isdigit, but no group index
    with pytest.raises(ConfigurationError, match="line 3: unknown key"):
        parse_scenario(MINIMAL + "target.\u00b2.rcs = 1\n")


def test_missing_required_keys():
    with pytest.raises(ConfigurationError, match="radar.prf"):
        parse_scenario("radar.carrier = 10e9\n")
    with pytest.raises(ConfigurationError, match="radar.carrier"):
        parse_scenario("radar.prf = 2000\n")


def test_group_validation():
    with pytest.raises(ConfigurationError, match="target.1 needs"):
        parse_scenario(MINIMAL + "target.1.position = 1 2 0\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_scenario(MINIMAL + "target.1.color = red\n")
    with pytest.raises(ConfigurationError, match="buildings.rows"):
        parse_scenario(MINIMAL + "buildings.origin = 0 0\nbuildings.cols = 2\n")


def test_a_scenario_is_fixed_at_construction():
    """Neither a field, a group nor a vector inside them can change
    after the checks have run."""
    scn = parse_scenario(MINIMAL + "target.1.position = 1 2 0\ntarget.1.rcs = 1\n")
    with pytest.raises(FrozenInstanceError):
        scn.num_pulses = 0
    with pytest.raises(FrozenInstanceError):
        scn.targets[0].rcs = -1.0
    with pytest.raises(ValueError, match="read-only"):
        scn.tx_position[2] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        scn.targets[0].position[0] = np.inf
    assert isinstance(scn.targets, tuple)


def test_a_receiver_velocity_needs_a_receiver_position():
    """Without `platform.rx_position` the receiver is the transmitter,
    so a receiver velocity would be hashed into the dataset but never
    simulated."""
    with pytest.raises(ConfigurationError, match="platform.rx_position"):
        parse_scenario(MINIMAL + "platform.rx_velocity = 0 90 0\n")
    scn = parse_scenario(MINIMAL + "platform.rx_position = 0 0 900\n"
                         "platform.rx_velocity = 0 90 0\n")
    np.testing.assert_array_equal(scn.rx_velocity, [0.0, 90.0, 0.0])


def test_comments_and_whitespace_do_not_matter():
    decorated = "# header comment\n\nradar.carrier = 10e9   # inline\n\n  radar.prf = 2000\n"
    assert scenario_hash(parse_scenario(decorated)) == scenario_hash(parse_scenario(MINIMAL))


def test_hash_tracks_semantic_changes():
    base = parse_scenario(MINIMAL)
    h0 = scenario_hash(base)
    assert scenario_hash(parse_scenario(MINIMAL + "sim.seed = 2\n")) != h0
    assert scenario_hash(parse_scenario(MINIMAL + "radar.pulses = 32\n")) != h0
    # hash covers raster contents, not just the path string
    a = replace(base, dem=ElevationGrid(heights=np.zeros((4, 4)), cell_size=30.0))
    b = replace(base, dem=ElevationGrid(heights=np.ones((4, 4)), cell_size=30.0))
    assert scenario_hash(a) != scenario_hash(b)


PRESET_HASHES = {
    "scenario1": "281f7f2b4f8a3e3d2447672ee03102c2798a5e09f946b46a69afb58c8c54a5b1",
    "scenario2": "5cf02206773a063df5e132d48ec73ce8129c6838e418f6fbea7911032231a1bb",
}


@pytest.mark.parametrize("name", sorted(PRESET_HASHES))
def test_preset_hashes_are_pinned(name):
    """The seed-1 desk presets keep the digests they had when the
    rasters were hashed through `tobytes` copies."""
    make = {"scenario1": generate_scenario1, "scenario2": generate_scenario2}[name]
    assert scenario_hash(make(scale=DESK_SCALE, seed=1)) == PRESET_HASHES[name]


def test_load_scenario_resolves_relative_rasters(tmp_path):
    dem_path = tmp_path / "ground.dem"
    from rfclutter.terrain import ElevationGrid
    write_dem(dem_path, ElevationGrid(heights=np.zeros((6, 6)), cell_size=50.0))
    (tmp_path / "scene.txt").write_text(MINIMAL + "terrain.dem = ground.dem\n")
    scn = load_scenario(tmp_path / "scene.txt")
    assert scn.dem is not None and scn.dem.cell_size == 50.0
    (tmp_path / "broken.txt").write_text(MINIMAL + "terrain.dem = missing.dem\n")
    with pytest.raises(ConfigurationError, match="referenced file not found"):
        load_scenario(tmp_path / "broken.txt")
    (tmp_path / "a_directory.txt").write_text(MINIMAL + "terrain.dem = .\n")
    with pytest.raises(ConfigurationError, match="cannot read referenced file"):
        load_scenario(tmp_path / "a_directory.txt")


def test_target_spec_validation():
    with pytest.raises(ConfigurationError):
        TargetSpec(position=[0, 0, 0], velocity=[0, 0, 0], rcs=-1.0)
    with pytest.raises(ConfigurationError):
        parse_scenario(MINIMAL + "radar.pulses = 0\n")
    with pytest.raises(ConfigurationError):
        parse_scenario(MINIMAL + "radar.bandwidth = 5e6\nradar.sample_rate = 1e6\n")
    # a replaced scenario is checked as a built one is
    with pytest.raises(ConfigurationError, match="radar.pulses"):
        replace(parse_scenario(MINIMAL), num_pulses=0)


# --- built-in scenes ---------------------------------------------------------

def test_littoral_dem_structure():
    dem, cover = littoral_dem()   # 20.01 km, coast at 6 km
    assert dem.heights.shape == (667, 667) and cover.classes.shape == (667, 667)
    assert dem.cell_size == cover.cell_size == 30.0
    x = (np.arange(667) + 0.5) * 30.0
    water_cols = x < 6000.0
    # water is flat at z = 0 and classed WATER; land rises somewhere inland
    assert np.all(dem.heights[:, water_cols] == 0.0)
    assert np.all(cover.classes[:, water_cols] == WATER)
    assert dem.heights[:, ~water_cols].max() > 50.0
    assert not np.any(cover.classes[:, ~water_cols] == WATER)


def meshgrid_littoral_dem():
    """Oracle: the built-in coastal scene evaluated on full meshgrids."""
    cells, cell_size = 667, 30.0
    c = np.arange(cells)
    x = (c + 0.5) * cell_size
    y = ((cells - 1 - c) + 0.5) * cell_size   # row 0 = north
    xx, yy = np.meshgrid(x, y)

    land = xx >= 6000.0
    inland = np.maximum(0.0, xx - 6000.0)
    rolling = 12.0 * (1.0 + np.sin(xx / 900.0) * np.sin(yy / 700.0))
    ramp = 0.004 * inland
    hill = 350.0 * np.exp(-(((xx - 14000.0) ** 2) + ((yy - 12000.0) ** 2)) / (2.0 * 1800.0 ** 2))
    heights = np.where(land, ramp + rolling + hill, 0.0)

    classes = np.full((cells, cells), GRASS, dtype=np.int64)
    classes[~land] = WATER
    forest = land & (np.sin(xx / 1500.0 + 1.0) * np.sin(yy / 1100.0) > 0.55)
    classes[forest] = FOREST
    urban = land & (xx > 8000.0) & (xx < 9500.0) & (yy > 8000.0) & (yy < 12000.0)
    classes[urban] = URBAN
    return heights, classes


def test_littoral_dem_matches_the_meshgrid_oracle():
    dem, cover = littoral_dem()
    heights, classes = meshgrid_littoral_dem()
    assert np.array_equal(dem.heights, heights)
    assert np.array_equal(cover.classes, classes)
    assert dem.heights.tobytes() == heights.tobytes()


def test_scenario1_scales():
    desk = generate_scenario1(scale=DESK_SCALE, seed=3)
    assert desk.num_cpis == 4 and desk.num_channels == 4 and desk.num_pulses == 64
    assert desk.export_dims == (4, 4, 64, 292)
    assert desk.seed == 3
    assert len(desk.targets) >= 2
    assert desk.dem is not None and desk.landcover is not None
    full = generate_scenario1(scale=1.0)
    assert full.export_dims == (30, 32, 64, 2334)


def test_scenario2_adds_coastal_content():
    scn = generate_scenario2(scale=DESK_SCALE, seed=3)
    assert scn.buildings is not None
    assert len(scn.buildings.centers()) == 150
    # every roof scatters as a building
    scene = build_scene(scn)
    roofs = scene.patches.classes[scene.num_terrain_patches:][:150]
    assert roofs.tolist() == [BUILDING] * 150
    # the two presets share the radar but not the scene content
    s1 = generate_scenario1(scale=DESK_SCALE, seed=3)
    assert scenario_hash(scn) != scenario_hash(s1)


def test_readme_scenario_example_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    text = section.split("```\n", 2)[1]
    write_dem(tmp_path / "site.dem",
              ElevationGrid(heights=np.zeros((8, 8)), cell_size=30.0))
    write_landcover(tmp_path / "site.lcm",
                    ClassGrid(classes=np.full((8, 8), WATER, dtype=np.int64),
                              cell_size=30.0))
    scn = parse_scenario(text, base_dir=tmp_path)
    assert scn.num_cpis == 4 and scn.num_channels == 4
    np.testing.assert_array_equal(scn.tx_position, [0.0, -2000.0, 3000.0])
    assert scn.wind_speed_mps == 12.0
    (target,) = scn.targets
    np.testing.assert_array_equal(target.velocity, [-6.0, 3.0, 0.0])
    assert scn.dem is not None and scn.landcover is not None


# --- fuzzing ------------------------------------------------------------------

EDGE_TOKENS = ["0", "-1", "-0.5", "2.5", "7", "3000", "1e9", "1e300", "nan", "-nan", "inf",
               "-inf", "1e400", "-1e400", "1e-400", "junk", ".", "0x10", "true", "no"]
KEYS = sorted(_KEYS) + [f"{group.replace('.N', f'.{idx}')}.{name}"
                        for group, (_, _, members) in sorted(_GROUPS.items())
                        for idx in ((1, 2) if group.endswith(".N") else (0,))
                        for name in sorted(members)]


@st.composite
def scenario_texts(draw):
    """Scenario text over the real key table: the two required keys
    (valid, or one of them left out) and up to three others, each set to a plain
    value or to 0 to 4 edge tokens (so vectors get the wrong arity
    too)."""
    missing = draw(st.sampled_from([None, None, "radar.carrier", "radar.prf"]))
    lines = [f"{key} = {value}" for key, value in (("radar.carrier", "10e9"),
                                                   ("radar.prf", "2000"))
             if key != missing]
    plain = st.sampled_from(["1e9", "2000", "2.5", "3", "1 2 3", "100 200", "1", "name"])
    edge = st.sampled_from(EDGE_TOKENS)
    edges = st.lists(edge, max_size=4).map(" ".join)
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=3, unique=True)):
        lines.append(f"{key} = {draw(st.one_of(edge, plain, edges))}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=400, deadline=None)
@given(text=scenario_texts())
@example(text=MINIMAL + "radar.swath = inf\n")
@example(text=MINIMAL + "radar.sample_rate = 1e400\n")
@example(text=MINIMAL + "radar.pulse_duration = inf\n")
def test_parse_scenario_returns_a_usable_scenario_or_rejects(text, tmp_path_factory):
    """The oracle: a parsed scenario passes its checks again when
    rebuilt, times and sizes its export, and its canonical text is a
    fixed point of parsing with a hash that repeats; anything else is
    a ConfigurationError."""
    base_dir = tmp_path_factory.getbasetemp()
    try:
        scn = parse_scenario(text, base_dir=base_dir)
    except ConfigurationError:
        return
    replace(scn)
    canonical = scenario_text(scn)
    again = parse_scenario(canonical, base_dir=base_dir)
    assert scenario_text(again) == canonical
    assert scenario_hash(again) == scenario_hash(scn)
    scn.timing()
    assert all(isinstance(n, int) and n >= 1 for n in scn.export_dims)


@pytest.mark.parametrize("line", ["radar.noise_power = inf", "radar.swath = 1e400",
                                  "platform.tx_position = 0 nan 1000",
                                  "ocean.wind_direction = nan",
                                  "target.1.position = 1 2 3\ntarget.1.rcs = inf",
                                  "discrete.1.position = 1 inf 3\ndiscrete.1.rcs = 5",
                                  "buildings.origin = 0 0\nbuildings.rows = 1\n"
                                  "buildings.cols = 1\nbuildings.height = inf",
                                  "mimo.1.position = 0 nan 0",
                                  "mimo.1.position = 0 0 -5"])
def test_non_finite_values_are_rejected(line):
    with pytest.raises(ConfigurationError):
        parse_scenario("radar.carrier = 10e9\nradar.prf = 2000\n" + line + "\n")
