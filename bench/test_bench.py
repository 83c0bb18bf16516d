"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(workloads.DeskDataset, "SCALE", 0.03)
    monkeypatch.setattr(workloads.QuarterCpi, "SCALE", 0.05)
    monkeypatch.setattr(workloads.WaveformDesign, "SCALE", 0.03)
    monkeypatch.setattr(workloads.WaveformDesign, "REALIZATIONS", 2)
    monkeypatch.setattr(workloads.WaveformReplay, "SCALE", 0.03)
    monkeypatch.setattr(workloads.WaveformReplay, "PATCH_SIZE_M", 1000.0)
    monkeypatch.setattr(workloads.WaveformReplay, "WAVEFORMS", 1)


def _run(capsys, workload, trace, seed=3):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    text, result = _run(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace         # a traced run needs one of each
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in text), m["name"]
    for name in ("error_rate", "output_sha256"):
        assert any(line.split()[:1] == [name] for line in text), name


def test_unused_or_missing_layer_reads_zero(capsys, monkeypatch):
    _, result = _run(capsys, "waveform-replay", 1)
    assert result["metrics"]["terrain.line_of_sight.calls"]["value"] == 0
    assert result["metrics"]["rxsim.simulate_cube.s"]["value"] > 0
    # a wrapped name the program no longer has (desk runs without wind)
    monkeypatch.delattr(workloads.pipeline, "pulse_modulation")
    _, result = _run(capsys, "desk-dataset", 1)
    assert result["correct"]
    assert result["metrics"]["ocean.pulse_modulation.s"]["value"] == 0


def test_traced_counts_repeat_on_the_same_seed(capsys):
    counts = [name for name, unit in
              {m["name"]: m["unit"] for m in SPEC["per_layer"]}.items() if unit == "count"]
    first = _run(capsys, "desk-dataset", 1)[1]["metrics"]
    second = _run(capsys, "desk-dataset", 1)[1]["metrics"]
    assert first["terrain.line_of_sight.calls"]["value"] > 0
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_failing_check_counts_toward_error_rate(capsys, monkeypatch):
    calls = []
    original = workloads.WaveformDesign.check

    def fail_second(self, result):
        calls.append(1)
        if len(calls) == 2:
            raise workloads.CheckFailed("injected")
        original(self, result)

    monkeypatch.setattr(workloads.WaveformDesign, "check", fail_second)
    text, result = _run(capsys, "waveform-design", 1)
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)
    rate = next(line.split() for line in text if line.split()[:1] == ["error_rate"])
    assert float(rate[1]) == 0.5


def test_host_clock_leaves_out_its_probes_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    start = time.perf_counter()
    result, timing = hostspeed.HostClock().time(lambda: time.sleep(0.1) or 7)
    elapsed = time.perf_counter() - start
    assert result == 7
    # the timer probes about ten times during the sleep, which keeps its
    # deadline; the probes before and after the call are not timed
    assert timing.probes > 2 * hostspeed.EDGE_PROBES
    assert 0.08 < timing.wall_s < 0.12
    assert timing.wall_s < elapsed
    assert timing.norm_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
