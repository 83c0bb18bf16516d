"""Command line wiring, exercised through main() with a small scenario file."""

import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rfclutter
from rfclutter import pipeline, rxsim
from rfclutter.cli import main
from rfclutter.challenge import read_challenge
from rfclutter.rxsim import DataCube, write_cube
from rfclutter.scenario import (DESK_SCALE, generate_scenario2, load_scenario,
                                scenario_text)
from rfclutter.terrain import ElevationGrid
from rfclutter.waveform import Waveform, lfm, read_waveform, write_waveform

from oracles import HOSTILE_IR_FILES, ir_blob, write_dem, write_landcover

SCENARIO = """
scenario.name = cli-check
radar.carrier = 10e9
radar.bandwidth = 5e6
radar.prf = 2000
radar.pulses = 8
radar.channels = 2
radar.cpis = 2
radar.pulse_duration = 1e-6
radar.noise_power = 1e-18
radar.swath = 1200
platform.tx_position = 100 600 300
platform.tx_velocity = 0 25 0
terrain.dem = ground.dem
terrain.patch_size = 60
target.1.position = 900 600 0
target.1.velocity = 10 0 0
target.1.rcs = 100
sim.seed = 5
"""


@pytest.fixture
def scenario_file(tmp_path):
    write_dem(tmp_path / "ground.dem",
              ElevationGrid(heights=np.zeros((40, 40)), cell_size=30.0))
    path = tmp_path / "scene.txt"
    path.write_text(SCENARIO)
    return path


def test_simulate_exports_a_readable_dataset(scenario_file, tmp_path, capsys):
    out = tmp_path / "ds"
    rc = main(["simulate", "--scenario", str(scenario_file), "--out", str(out)])
    assert rc == 0
    assert "manifest" in capsys.readouterr().out
    data = read_challenge(out)
    assert data.num_cpis == 2 and data.seed == 5


def test_seed_override_changes_export(scenario_file, tmp_path):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    for out, seed in ((a, None), (b, 7), (c, 7)):
        argv = ["simulate", "--scenario", str(scenario_file), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
    blob = lambda d: (d / "cube_cpi000.rfcube").read_bytes()
    assert blob(a) != blob(b)
    assert blob(b) == blob(c)


def test_clutter_and_los_maps(scenario_file, tmp_path):
    out = tmp_path / "maps"
    assert main(["clutter-map", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0
    assert (out / "clutter_map.csv").exists()
    assert (out / "clutter_map.pgm").read_bytes().startswith(b"P5\n")
    assert main(["los-map", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0
    assert (out / "los_map.csv").exists()


def test_range_doppler_from_dataset_cube(scenario_file, tmp_path):
    ds = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(ds)]) == 0
    out = tmp_path / "rd"
    rc = main(["range-doppler", "--cube", str(ds / "cube_cpi001.rfcube"),
               "--waveform", str(ds / "waveform.rfwav"), "--cpi", "1",
               "--out", str(out)])
    assert rc == 0
    assert (out / "rd_cpi001.csv").exists()
    assert (out / "rd_cpi001_peaks.csv").exists()


def test_range_doppler_of_a_scenario_equals_that_of_its_exported_cubes(scenario_file,
                                                                       tmp_path):
    """The scenario path compresses with the waveform as its file stores
    it, so every CPI's map, peak list and image equal those of its
    exported cube with the exported waveform file, byte for byte."""
    ds = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(ds)]) == 0
    fresh = tmp_path / "fresh"
    assert main(["range-doppler", "--scenario", str(scenario_file), "--out", str(fresh)]) == 0
    for cpi in range(2):
        stored = tmp_path / f"stored{cpi}"
        assert main(["range-doppler", "--cube", str(ds / f"cube_cpi{cpi:03d}.rfcube"),
                     "--waveform", str(ds / "waveform.rfwav"), "--cpi", str(cpi),
                     "--out", str(stored)]) == 0
        for name in (f"rd_cpi{cpi:03d}.csv", f"rd_cpi{cpi:03d}_peaks.csv",
                     f"rd_cpi{cpi:03d}.pgm"):
            assert (stored / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize("line, value", [("radar.noise_power", "1e80"),
                                         ("target.1.rcs", "1e120")])
def test_samples_beyond_complex64_exit_with_code_2_and_no_manifest(
        line, value, scenario_file, tmp_path, capsys):
    text = "".join(f"{line} = {value}\n" if row.startswith(line) else row + "\n"
                   for row in scenario_file.read_text().splitlines())
    assert f"{line} = {value}" in text
    bad = tmp_path / "overflow.txt"
    bad.write_text(text)
    out = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "complex64" in err and "Traceback" not in err
    assert not (out / "manifest.txt").exists()


def test_range_doppler_rejects_a_cube_file_of_several_cpis(scenario_file, tmp_path, capsys):
    """`--cube` maps one CPI; a file of two exits 2 instead of mapping
    its CPI 0 under the name that `--cpi` gives."""
    ds = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(ds)]) == 0
    c0, c1 = ((ds / f"cube_cpi00{c}.rfcube").read_bytes() for c in (0, 1))
    two = tmp_path / "two.rfcube"
    # the header's CPI count is the u32 after the 8-byte magic
    two.write_bytes(c0[:8] + struct.pack("<I", 2) + c0[12:] + c1[rxsim._HEADER.size:])
    out = tmp_path / "rd"
    capsys.readouterr()
    assert main(["range-doppler", "--cube", str(two), "--waveform", str(ds / "waveform.rfwav"),
                 "--cpi", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "2 CPIs" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_inspect_identifies_files(scenario_file, tmp_path, capsys):
    ds = tmp_path / "ds"
    main(["simulate", "--scenario", str(scenario_file), "--out", str(ds)])
    capsys.readouterr()
    assert main(["inspect", str(ds / "cube_cpi000.rfcube")]) == 0
    assert "data cube" in capsys.readouterr().out
    assert main(["inspect", str(ds)]) == 0
    assert "cli-check" in capsys.readouterr().out


def test_range_doppler_rejects_a_waveform_at_another_rate(scenario_file, tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(ds)]) == 0
    fast = tmp_path / "fast.rfwav"
    write_waveform(fast, lfm(bandwidth=5e6, duration=1e-6, sample_rate=10e6))
    out = tmp_path / "rd"
    capsys.readouterr()
    assert main(["range-doppler", "--cube", str(ds / "cube_cpi000.rfcube"),
                 "--waveform", str(fast), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "sample rate" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("magic, fields", [
    (b"RFWAV001", 12), (b"RFGIR002", 40), (b"RFCUBE01", 48)])
def test_inspect_rejects_a_truncated_header_with_code_2(magic, fields, tmp_path, capsys):
    """The magic alone, and the magic with all but one byte of the
    header fields, exit 2 and name the truncated header."""
    for kept in (0, 3, fields - 1):
        path = tmp_path / f"short{kept}.bin"
        path.write_bytes(magic + b"abc"[:kept] + bytes(max(0, kept - 3)))
        assert main(["inspect", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "truncated" in err and "Traceback" not in err


@pytest.mark.parametrize("name", sorted(HOSTILE_IR_FILES))
def test_inspect_rejects_a_hostile_impulse_response_with_code_2(name, tmp_path, capsys):
    blob, message = HOSTILE_IR_FILES[name]
    path = tmp_path / f"{name}.rfgir"
    path.write_bytes(blob)
    assert main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err


def test_inspect_prints_the_occupied_tap_count(tmp_path, capsys):
    path = tmp_path / "ok.rfgir"
    path.write_bytes(ir_blob(2, 3, 6, [0, 2, 3, 5]))
    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert "impulse response" in out and "2 channels x 3 pulses x 6 taps, 4 occupied" in out


@pytest.mark.parametrize("origin", [1e-5, -1.0, float("nan"), float("inf")])
def test_inspect_rejects_a_delay_origin_with_code_2(origin, tmp_path, capsys):
    """A channel starts at delay 0, so an RFGIR002 header that gives
    its delay origin as anything else is rejected."""
    path = tmp_path / "origin.rfgir"
    blob = bytearray(ir_blob(2, 3, 6, [0, 2, 3, 5]))
    struct.pack_into("<d", blob, 28, origin)
    path.write_bytes(bytes(blob))
    assert main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "delay_origin" in err and "Traceback" not in err


def test_inspect_rejects_the_removed_covariance_format_with_code_2(tmp_path, capsys):
    """The covariance matrix format is gone, so its magic is unknown."""
    path = tmp_path / "r.rfcov"
    path.write_bytes(struct.pack("<8sI", b"RFCOV" + b"001", 3) + bytes(16 * 9))
    assert main(["inspect", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unrecognized file magic" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_range_doppler_rejects_a_non_finite_waveform_with_code_2(
        value, scenario_file, tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(ds)]) == 0
    blob = bytearray((ds / "waveform.rfwav").read_bytes())
    struct.pack_into("<f", blob, 20 + 4 * 3, value)        # the Q value of sample 1
    bad = tmp_path / "bad.rfwav"
    bad.write_bytes(bytes(blob))
    out = tmp_path / "rd"
    capsys.readouterr()
    assert main(["range-doppler", "--cube", str(ds / "cube_cpi000.rfcube"),
                 "--waveform", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "non-finite" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_range_doppler_rejects_an_all_zero_waveform_with_code_2(
        scenario_file, tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(ds)]) == 0
    wf = read_waveform(ds / "waveform.rfwav")
    silent = tmp_path / "silent.rfwav"
    write_waveform(silent, Waveform(samples=np.zeros_like(wf.samples),
                                    sample_rate=wf.sample_rate))
    out = tmp_path / "rd"
    capsys.readouterr()
    assert main(["range-doppler", "--cube", str(ds / "cube_cpi000.rfcube"),
                 "--waveform", str(silent), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "all-zero" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_inspect_rejects_a_repeated_file_entry_with_code_2(scenario_file, tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(ds)]) == 0
    manifest = ds / "manifest.txt"
    lines = manifest.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("file = cube_cpi000"))
    lines.insert(first, "file = cube_cpi000.rfcube " + "0" * 64)
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["inspect", str(ds)]) == 2
    err = capsys.readouterr().err
    assert f"line {first + 2}" in err and "duplicate file cube_cpi000.rfcube" in err


@pytest.mark.parametrize("verb", ["simulate", "clutter-map", "los-map", "range-doppler",
                                  "cofar-optimize", "mimo-sim"])
def test_no_verb_accepts_threads(verb, scenario_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--scenario", str(scenario_file), "--out", str(tmp_path / "out"),
              "--threads", "2"])
    assert exit_info.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_errors_exit_with_code_2(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["inspect", str(tmp_path / "nothing.rfcube")]) == 2


@pytest.mark.parametrize("key, value", [
    ("cpis", "four"), ("cpis", "0"), ("cpis", "-1"), ("cpis", "2.0"),
    ("channels", "0"), ("pulses", "x"), ("range_samples", "0"),
    ("seed", "-3"), ("seed", "five")])
def test_inspect_rejects_a_bad_manifest_count_with_code_2(
        key, value, scenario_file, tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(scenario_file), "--out", str(ds)]) == 0
    manifest = ds / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines]
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["inspect", str(ds)]) == 2
    assert key in capsys.readouterr().err


def test_off_raster_platform_simulates(scenario_file, tmp_path, capsys):
    # the 1.2 km raster spans x in [0, 1200]; put the radar west of it
    text = scenario_file.read_text().replace(
        "platform.tx_position = 100 600 300", "platform.tx_position = -300 600 300")
    assert "-300 600 300" in text
    off = tmp_path / "off_raster.txt"
    off.write_text(text)
    out = tmp_path / "ds"
    assert main(["simulate", "--scenario", str(off), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error:" not in err
    assert read_challenge(out).num_cpis == 2


def test_target_on_the_platform_exits_with_code_2(scenario_file, tmp_path, capsys):
    text = scenario_file.read_text() + "target.2.position = 100 600 300\ntarget.2.rcs = 10\n"
    bad = tmp_path / "target_on_platform.txt"
    bad.write_text(text)
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "ds")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "coincides" in err and "Traceback" not in err


@pytest.mark.parametrize("verb", ["simulate", "clutter-map", "los-map", "range-doppler",
                                  "cofar-optimize", "mimo-sim"])
def test_out_that_is_a_file_exits_with_code_2_before_simulating(
        verb, scenario_file, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("simulated before resolving --out")

    for name in ("simulate_scenario", "gain_map", "build_scene"):
        monkeypatch.setattr(pipeline, name, no_work)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    for out in (taken, taken / "sub"):
        assert main([verb, "--scenario", str(scenario_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--out" in err and "Traceback" not in err
    assert taken.read_text() == "a file, not a directory"


# the scenario file has 2 CPIs, 8 pulses and 2 channels
@pytest.mark.parametrize("argv", [
    ["cofar-optimize", "--pulse", "999"],
    ["cofar-optimize", "--pulse", "8"],
    ["cofar-optimize", "--channel", "-1"],
    ["cofar-optimize", "--channel", "2"],
    ["cofar-optimize", "--cpi", "2"],
    ["mimo-sim", "--cpi", "-1"],
    ["mimo-sim", "--cpi", "2"],
    ["clutter-map", "--cpi", "-1"],
    ["clutter-map", "--cpi", "2"],
    ["los-map", "--cpi", "-1"],
], ids=" ".join)
def test_out_of_range_index_exits_with_code_2(argv, scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    if argv[0] == "cofar-optimize":
        argv = argv + ["--realizations", "2"]
    assert main(argv + ["--scenario", str(scenario_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "index" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


# (argv, what the error names); S is the scenario file, C a cube file and
# W a waveform file
UNREAD_FLAGS = [
    ("los-map --scenario S --scale 0.5", "--scale"),
    ("simulate --scenario S --scale 0.5", "--scale"),
    ("range-doppler --cube C --waveform W --preset scenario2", "--preset"),
    ("range-doppler --cube C --waveform W --scenario S", "--scenario"),
    ("range-doppler --cube C --waveform W --seed 9", "--seed"),
    ("range-doppler --cube C --waveform W --scale 0.5", "--scale"),
    ("range-doppler --cube C --waveform W --cpi -1", "--cpi"),
    ("range-doppler --scenario S --waveform W", "--cube"),
    ("range-doppler --scenario S --cpi 1", "--cube"),
]


def assert_exits_2_before_simulating(argv, message, scenario_file, tmp_path, capsys,
                                     monkeypatch):
    """`argv`, with S for the scenario file, C for a cube file and W for
    a waveform file, exits 2 naming `message` before any simulation,
    and writes nothing."""
    def no_work(*args, **kwargs):
        raise AssertionError("simulated before checking the flags")

    for name in ("simulate_scenario", "gain_map", "build_scene"):
        monkeypatch.setattr(pipeline, name, no_work)
    cube, waveform = tmp_path / "c.rfcube", tmp_path / "w.rfwav"
    rng = np.random.default_rng(3)
    write_cube(cube, DataCube(samples=rng.normal(size=(1, 2, 8, 20)).astype(np.complex64),
                              sample_rate=5e6, prf=2000.0, noise_power=0.0))
    write_waveform(waveform, lfm(bandwidth=5e6, duration=1e-6, sample_rate=5e6))
    paths = {"S": str(scenario_file), "C": str(cube), "W": str(waveform)}
    out = tmp_path / "out"
    argv = [paths.get(arg, arg) for arg in argv.split()] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message",
                         [pytest.param(a, m, id=a) for a, m in UNREAD_FLAGS])
def test_a_flag_the_input_does_not_read_exits_with_code_2_before_simulating(
        argv, message, scenario_file, tmp_path, capsys, monkeypatch):
    """--scale sizes a preset only; --waveform and --cpi go with --cube,
    which reads no scenario.  Any other use exits 2 before any
    simulation, and writes nothing."""
    assert_exits_2_before_simulating(argv, message, scenario_file, tmp_path, capsys,
                                     monkeypatch)


@pytest.mark.parametrize("verb", ["simulate", "clutter-map", "los-map", "range-doppler",
                                  "cofar-optimize", "mimo-sim"])
def test_a_negative_seed_override_exits_with_code_2_before_simulating(
        verb, scenario_file, tmp_path, capsys, monkeypatch):
    """--seed replaces the scenario's seed, and the scenario is checked
    again: a negative seed exits 2 before any simulation, from every
    verb that reads a scenario."""
    assert_exits_2_before_simulating(f"{verb} --scenario S --seed -1", "sim.seed",
                                     scenario_file, tmp_path, capsys, monkeypatch)


BAD_LEVELS = [
    ("clutter-map --scenario S --clip-db nan", "clip_db"),
    ("clutter-map --scenario S --clip-db 0", "clip_db"),
    ("los-map --scenario S --clip-db inf", "clip_db"),
    ("los-map --scenario S --clip-db=-3", "clip_db"),
    ("range-doppler --scenario S --clip-db nan", "clip_db"),
    ("range-doppler --scenario S --peak-offset-db nan", "peak_offset_db"),
    ("range-doppler --cube C --waveform W --clip-db 0", "clip_db"),
    ("range-doppler --cube C --waveform W --clip-db inf", "clip_db"),
    ("range-doppler --cube C --waveform W --peak-offset-db=-inf", "peak_offset_db"),
]


@pytest.mark.parametrize("argv, message",
                         [pytest.param(a, m, id=a) for a, m in BAD_LEVELS])
def test_a_non_finite_or_non_positive_level_exits_with_code_2_before_simulating(
        argv, message, scenario_file, tmp_path, capsys, monkeypatch):
    """A map's --clip-db must be positive and finite and its
    --peak-offset-db finite; otherwise the verb exits 2 before any
    simulation, and writes nothing."""
    assert_exits_2_before_simulating(argv, message, scenario_file, tmp_path, capsys,
                                     monkeypatch)


def test_zero_realizations_exit_with_code_2_before_any_budget(scenario_file, tmp_path,
                                                              capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("scene or budget work before the realization check")

    monkeypatch.setattr(pipeline, "build_scene", forbidden)
    monkeypatch.setattr(pipeline, "patch_budget", forbidden)
    out = tmp_path / "out"
    assert main(["cofar-optimize", "--realizations", "0", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "realizations" in err and "Traceback" not in err


def test_clutter_taps_beyond_complex64_exit_cofar_optimize_with_code_2(scenario_file,
                                                                       tmp_path, capsys):
    bad = tmp_path / "loud_discrete.txt"
    bad.write_text(scenario_file.read_text()
                   + "discrete.1.position = 700 600 5\ndiscrete.1.rcs = 1e120\n")
    out = tmp_path / "out"
    assert main(["cofar-optimize", "--realizations", "4", "--scenario", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "clutter tap" in err and "Traceback" not in err
    assert not (out / "optimal_waveform.rfwav").exists()


@pytest.mark.parametrize("edits, message", [
    # the target beyond the swath
    ({"target.1.position = 900 600 0": "target.1.position = 5000 600 0"}, "no target power"),
    # the target behind the elements
    ({"target.1.position = 900 600 0": "target.1.position = -900 600 0"}, "no target power"),
    # no noise, and a platform so high that all ground lies beyond the swath
    ({"radar.noise_power = 1e-18": "radar.noise_power = 0",
      "platform.tx_position = 100 600 300": "platform.tx_position = 100 600 2000",
      "target.1.position = 900 600 0": "target.1.position = 600 600 2000"},
     "not positive"),
])
def test_cofar_optimize_with_nothing_to_design_for_exits_2_and_writes_nothing(
        scenario_file, tmp_path, capsys, edits, message):
    """A chosen row with no target power, or a clutter-plus-noise moment
    that is singular, exits 2 with a one-line error before any file is
    written."""
    text = scenario_file.read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    out = tmp_path / "out"
    assert main(["cofar-optimize", "--realizations", "2", "--scenario", str(bad),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
    assert list(out.iterdir()) == []


def test_mimo_sim_with_a_transmitter_that_reaches_nothing_exits_2_and_writes_nothing(
        scenario_file, tmp_path, capsys):
    """Without the target, a transmitter far outside the swath leaves
    its own cube empty; the command names it and writes no file."""
    text = scenario_file.read_text()
    target = "target.1.position = 900 600 0\ntarget.1.velocity = 10 0 0\ntarget.1.rcs = 100\n"
    assert target in text
    bad = tmp_path / "far_tx.txt"
    bad.write_text(text.replace(target, "") + "mimo.1.position = -3000 600 5\n")
    out = tmp_path / "out"
    assert main(["mimo-sim", "--scenario", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "transmitter 1" in err and "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("extra, table, message", [
    ("mimo.1.position = 0 nan 0\n", None, "mimo.N.position"),
    ("mimo.1.position = 0 0 -5\n", None, "altitude"),
    ("scattering.table = sigma.txt\n", "1 X nan\n", "sigma.txt: line 1"),
    ("scattering.table = sigma.txt\n", "1 X -15 1e5\n", "cross sections"),
], ids=["mimo-nan", "mimo-below-ground", "table-nan", "table-overflow"])
def test_simulate_with_a_bad_transmitter_or_reflectivity_exits_2_and_writes_no_manifest(
        scenario_file, tmp_path, capsys, extra, table, message):
    """A non-finite or below-ground `mimo.N.position`, a non-finite
    reflectivity entry and a polynomial whose sigma0 overflows each
    make `simulate` exit 2 with one error line, and no dataset is
    written that `inspect` could not read."""
    if table is not None:
        (scenario_file.parent / "sigma.txt").write_text(table)
    bad = scenario_file.parent / "bad.txt"
    bad.write_text(scenario_file.read_text() + extra)
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
    assert not (out / "manifest.txt").exists()


def test_last_valid_indices_run(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["cofar-optimize", "--cpi", "1", "--pulse", "7", "--channel", "1",
                 "--realizations", "2", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0
    assert main(["mimo-sim", "--cpi", "1", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0
    assert main(["clutter-map", "--cpi", "1", "--scenario", str(scenario_file),
                 "--out", str(out)]) == 0


def windy_scenario(root: Path) -> list[str]:
    """`simulate` arguments for desk scenario2 with a 12 m/s wind,
    written as a scenario file with its rasters: the sea surface
    modulates its water clutter, which the scenario1 preset has none
    of."""
    scn = replace(generate_scenario2(scale=DESK_SCALE, seed=1), wind_speed_mps=12.0,
                  dem_path="coast.dem", landcover_path="coast.lc")
    root.mkdir(parents=True)
    write_dem(root / "coast.dem", scn.dem)
    write_landcover(root / "coast.lc", scn.landcover)
    (root / "windy.txt").write_text(scenario_text(scn))
    return ["--scenario", str(root / "windy.txt")]


RANGE_DOPPLER_PRODUCTS = ("rd_cpi000.csv", "rd_cpi000_peaks.csv", "rd_cpi000.pgm")


def simulated_products(tmp_path, env, **run) -> dict[str, bytes]:
    """Bytes of the manifest of `simulate` on the scenario1 preset and on
    the windy scenario, and of the map CSV, peaks CSV and PGM of
    `range-doppler --cube` on each one's CPI 0, keyed "<scenario>/<file>";
    every verb runs in a child process with `env`."""
    def cli(*argv):
        subprocess.run([sys.executable, "-m", "rfclutter.cli", *argv], env=env, check=True,
                       capture_output=True, **run)

    products = {}
    for name, argv in (("scenario1", ["--preset", "scenario1"]),
                       ("windy", windy_scenario(tmp_path / "windy-input"))):
        out, maps = tmp_path / name, tmp_path / f"{name}-rd"
        cli("simulate", *argv, "--out", str(out))
        cli("range-doppler", "--cube", str(out / "cube_cpi000.rfcube"),
            "--waveform", str(out / "waveform.rfwav"), "--out", str(maps))
        products[f"{name}/manifest.txt"] = (out / "manifest.txt").read_bytes()
        for product in RANGE_DOPPLER_PRODUCTS:
            products[f"{name}/{product}"] = (maps / product).read_bytes()
    return products


def child_env(**extra) -> dict[str, str]:
    """The environment of a CLI child process: this checkout's package,
    and a numpy RuntimeWarning raised as an error, as in the suite."""
    src = str(Path(rfclutter.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONWARNINGS="error::RuntimeWarning",
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_windy_scenario_reaches_the_sea_surface(tmp_path):
    """The gates' windy scenario has live water clutter, so they run
    the sea-surface series."""
    scn = load_scenario(windy_scenario(tmp_path / "in")[1])
    assert scn.wind_speed_mps == 12.0
    scene = pipeline.build_scene(scn)
    budget = pipeline.patch_budget(scn, scene, *pipeline.platform_states(scn, 0),
                                   pipeline.receive_array(scn))
    assert np.count_nonzero(scene.water & (budget.gains != 0)) > 0


def test_blas_thread_count_does_not_change_the_dataset(tmp_path):
    """The per-tap GEMM sums each tap in one order whatever the OpenBLAS
    thread count, and the range-Doppler chain makes no BLAS call: the
    manifests of desk scenario1 and of the windy scenario, which hash
    every file, and the range-Doppler products of their CPI 0 cubes are
    byte-identical under one and two BLAS threads."""
    one = simulated_products(tmp_path / "blas1", child_env(OPENBLAS_NUM_THREADS="1"))
    two = simulated_products(tmp_path / "blas2", child_env(OPENBLAS_NUM_THREADS="2"))
    assert one == two
    assert b"\nrng = philox4x64-10\n" in one["scenario1/manifest.txt"]
    assert one["windy/rd_cpi000_peaks.csv"].count(b"\n") > 1


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and at least two CPUs")
def test_core_count_does_not_change_the_dataset(tmp_path):
    """Line of sight, the draws, the sea surface, tap accumulation, cube
    assembly and range-Doppler processing spread their work over the
    CPUs the process may run on: the manifests of desk scenario1 and of
    the windy scenario, and the range-Doppler products of their CPI 0
    cubes, are byte-identical when the runs are pinned to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    pinned = simulated_products(tmp_path / "pinned", child_env(),
                                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    free = simulated_products(tmp_path / "free", child_env())
    assert pinned == free


def test_a_preset_simulates_the_same_bytes_with_the_site_built_or_shared(tmp_path):
    """The littoral site is built once per process: two in-process runs
    of `simulate --preset scenario1`, which share the site and its LOS
    bounds, write the manifest, which hashes every file of the dataset,
    that a child process writes on a site it builds anew."""
    def manifest(out: Path) -> bytes:
        return (out / "manifest.txt").read_bytes()

    argv = ["simulate", "--preset", "scenario1", "--seed", "3"]
    for run in ("first", "second"):
        assert main([*argv, "--out", str(tmp_path / run)]) == 0
    subprocess.run([sys.executable, "-m", "rfclutter.cli", *argv, "--out",
                    str(tmp_path / "child")], env=child_env(), check=True, capture_output=True)
    assert manifest(tmp_path / "first") == manifest(tmp_path / "second")
    assert manifest(tmp_path / "first") == manifest(tmp_path / "child")
    assert b"cube_cpi003.rfcube" in manifest(tmp_path / "child")
