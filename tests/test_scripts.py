"""The study scripts, each run end to end through its main() with small
arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

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
    presets' two discretes get a line of their own."""
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
