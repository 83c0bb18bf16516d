"""The study scripts, each run end to end through its main() with small
arguments, and the README's Python example and Quick start commands as
written."""

import importlib.util
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfclutter
from rfclutter import pipeline
from rfclutter.cli import main as rfclutter_main
from rfclutter.errors import ConfigurationError
from rfclutter.scenario import DESK_SCALE, generate_scenario1
from rfclutter.terrain import ElevationGrid

from oracles import write_dem

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = SCRIPTS.parent / "README.md"

# script name -> (argv for an output directory, files it must write
# there, text its report must contain)
CASES = {
    # scenario1 at desk scale: 84 x 84 terrain patches and no buildings
    "coverage_study": (
        lambda out: ["--preset", "scenario1", "--scale", "0.125",
                     "--out", str(out / "coverage")],
        ["coverage/gain_map.csv", "coverage/gain_map.pgm"], "7056 patches"),
    "wind_doppler_study": (
        lambda out: ["--winds", "0", "10", "--trials", "2", "--out", str(out / "wind.csv")],
        ["wind.csv"], "wrote"),
    "waveform_design_study": (
        lambda out: ["--preset", "scenario1", "--lengths", "8", "--realizations", "4",
                     "--out", str(out / "design.csv")],
        ["design.csv"], "wrote"),
    "mimo_leakage_study": (lambda out: ["--pulses", "4", "--frame", "16"], [], "phase codes"),
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"study_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_has_a_case():
    assert sorted(p.stem for p in SCRIPTS.glob("*.py")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_runs(name, tmp_path, capsys):
    argv, outputs, text = CASES[name]
    assert load_script(name).main(argv(tmp_path)) == 0
    assert text in capsys.readouterr().out
    for rel in outputs:
        assert (tmp_path / rel).stat().st_size > 0


@pytest.mark.parametrize("preset", ["scenario1", "scenario2"])
def test_coverage_study_lit_total_is_the_sum_of_its_class_rows(preset, tmp_path, capsys):
    """The header counts the facets that the class rows list; the
    presets' two discretes get a line of their own.  The gain map is a
    patch raster, its CSV columns row, col and db."""
    argv = ["--preset", preset, "--scale", "0.125", "--out", str(tmp_path)]
    assert load_script("coverage_study").main(argv) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    words = header.split()
    patches, lit = int(words[words.index("patches,") - 1]), int(words[words.index("lit") - 1])
    table = [r.split() for r in rows if r.split()[2:5:2] == ["/", "lit"]]
    classes = [r for r in table if r[0] != "discretes:"]
    assert sum(int(c[1]) for c in classes) == lit
    assert sum(int(c[3]) for c in classes) == patches
    assert [r[1:4] for r in table if r[0] == "discretes:"] == [["2", "/", "2"]]
    assert (tmp_path / "gain_map.csv").read_text().splitlines()[0] == "row,col,db"


def test_coverage_study_counts_every_patch_with_gain_as_lit(tmp_path, capsys):
    """"Lit" is non-zero two-way gain with no receive window, as in the
    gain map that the study writes: the printed total is the count of
    facets with gain in the windowless budget, which on desk scenario1
    exceeds the count inside the receive window."""
    argv = ["--preset", "scenario1", "--scale", str(DESK_SCALE), "--out", str(tmp_path)]
    assert load_script("coverage_study").main(argv) == 0
    words = capsys.readouterr().out.splitlines()[0].split()
    lit = int(words[words.index("lit") - 1])
    scn = generate_scenario1(scale=DESK_SCALE)
    scene = pipeline.build_scene(scn)
    link = (scn, scene, *pipeline.platform_states(scn, 0), pipeline.receive_array(scn))
    facets = len(scene.patches) - scene.num_discretes
    gained = np.count_nonzero(pipeline.patch_budget(*link).gains[:facets])
    in_window = np.count_nonzero(pipeline.patch_budget(*link, scn.timing()).gains[:facets])
    assert lit == gained > in_window


SMALL_SCENARIO = """
radar.carrier = 10e9
radar.bandwidth = 5e6
radar.prf = 2000
radar.pulses = 8
radar.channels = 2
radar.pulse_duration = 1e-6
radar.noise_power = 1e-18
radar.swath = 1200
platform.tx_position = 100 600 300
terrain.dem = ground.dem
terrain.patch_size = 60
target.1.position = 900 600 0
target.1.rcs = 100
sim.seed = 5
"""


def test_coverage_study_of_a_scene_with_no_lit_patch(tmp_path, capsys):
    """An array that looks straight up lights no patch of a flat site:
    the study says that no patch has gain, exits 0, and its gain map
    image is black."""
    write_dem(tmp_path / "ground.dem", ElevationGrid(heights=np.zeros((8, 8)), cell_size=30.0))
    scenario = tmp_path / "scene.txt"
    scenario.write_text(SMALL_SCENARIO + "array.boresight = 0 0 1\n")
    out = tmp_path / "coverage"
    assert load_script("coverage_study").main(["--scenario", str(scenario),
                                               "--out", str(out)]) == 0
    assert "no patch has gain" in capsys.readouterr().out
    header = b"P5\n4 4\n255\n"
    pgm = (out / "gain_map.pgm").read_bytes()
    assert pgm.startswith(header) and pgm[len(header):] == bytes(16)


def test_the_scripts_read_the_scenario_flags_as_the_cli_does(tmp_path):
    """The study scripts take rfclutter's scenario flags: --seed reaches a
    --scenario file, and --scale with a --scenario file or a seed the
    scenario rejects is a ConfigurationError."""
    write_dem(tmp_path / "ground.dem", ElevationGrid(heights=np.zeros((40, 40)), cell_size=30.0))
    scenario = tmp_path / "scene.txt"
    scenario.write_text(SMALL_SCENARIO)
    design = load_script("waveform_design_study")
    common = ["--scenario", str(scenario), "--lengths", "8", "--realizations", "4"]
    for seed in (5, 7):
        assert design.main(common + ["--seed", str(seed),
                                     "--out", str(tmp_path / f"seed{seed}.csv")]) == 0
    assert (tmp_path / "seed5.csv").read_bytes() != (tmp_path / "seed7.csv").read_bytes()
    with pytest.raises(ConfigurationError, match="--scale"):
        design.main(common + ["--scale", "0.5", "--out", str(tmp_path / "scaled.csv")])
    with pytest.raises(ConfigurationError, match="sim.seed"):
        load_script("coverage_study").main(["--preset", "scenario1", "--seed", "-1",
                                            "--out", str(tmp_path / "coverage")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ground.dem", "scene.txt",
                                                          "seed5.csv", "seed7.csv"]


# script name -> flags that rfclutter's scenario checks reject
BAD_FLAGS = {
    "coverage_study": ["--preset", "scenario1", "--seed", "-1"],
    "waveform_design_study": ["--preset", "scenario1", "--scale", "0"],
    "wind_doppler_study": ["--winds", "-1", "--trials", "1"],
    "mimo_leakage_study": ["--taps", "0"],
}


def assert_exits_2_with_one_error_line(name, flags, cwd):
    """Run as a program from `cwd`, the script reports a rejected input
    as `rfclutter` does: exit status 2, stderr starting with `error:`,
    no traceback, and nothing written."""
    src = str(Path(rfclutter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *flags],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_rejected_flag_exits_2_with_one_error_line(name, tmp_path):
    assert_exits_2_with_one_error_line(name, BAD_FLAGS[name], tmp_path)


@pytest.mark.parametrize("name, flags", [
    ("mimo_leakage_study", ["--pulses", "-1"]),
    ("mimo_leakage_study", ["--pulses", "0"]),
    ("mimo_leakage_study", ["--taps", "-2"]),
    ("mimo_leakage_study", ["--frame", "1"]),
    ("mimo_leakage_study", ["--seed", "-1"]),
    ("wind_doppler_study", ["--trials", "0"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_a_study_flag_out_of_range_exits_2_before_any_work(name, flags, tmp_path):
    """A study's own flags are checked before it simulates: a count
    below one, a frame too short to split into two pulses or a negative
    seed is a ConfigurationError, not a numpy traceback or NaN rows."""
    assert_exits_2_with_one_error_line(name, flags, tmp_path)


def test_wind_doppler_study_checks_its_scenarios(tmp_path):
    """A negative wind speed is rejected, not simulated as a calm sea."""
    with pytest.raises(ConfigurationError, match="ocean.wind_speed"):
        load_script("wind_doppler_study").main(["--winds", "-1", "--trials", "1",
                                                "--out", str(tmp_path / "wind.csv")])
    assert list(tmp_path.iterdir()) == []


def test_readme_python_example_runs(tmp_path, monkeypatch):
    """The README's one Python block runs from a scratch working
    directory: it exports desk scenario1 and replays CPI 0's channels
    with a 64-chip code, which gives 64 + 280 - 1 range samples."""
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["cube"].dims == (1, 4, 64, 343)
    assert (tmp_path / "out" / "ds" / "manifest.txt").is_file()


def readme_commands() -> list[list[str]]:
    """The `rfclutter` command lines of the README's Quick start shell
    blocks, in order, backslash continuations joined, split as a shell
    splits them, without the program name."""
    text = README.read_text(encoding="utf-8")
    quick_start = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\n(.*?)```", quick_start, re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("rfclutter ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    """Every Quick start command runs from a scratch working directory,
    in order, exits 0, and leaves each path it names; each range-Doppler
    map is named after its cube, so the two share one directory."""
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "simulate", "inspect", "range-doppler", "range-doppler", "clutter-map", "los-map",
        "cofar-optimize", "mimo-sim"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert rfclutter_main(argv) == 0, capsys.readouterr().err
        for path in (arg for arg in argv[1:] if "/" in arg):
            assert (tmp_path / path).exists(), (argv, path)
    maps = tmp_path / "out" / "maps"
    assert sorted(p.name for p in maps.iterdir()) == [
        f"rd_cpi00{c}{suffix}" for c in (0, 3) for suffix in (".csv", ".pgm", "_peaks.csv")]
