"""The four benchmark workloads.

Each workload is a closed loop with one client: the harness calls
``setup()`` (repeated, to time it), then ``operation(i)`` one at a time,
and after each operation ``check(result)``, which raises CheckFailed
when the output is wrong, and ``digest(result)``, which must repeat
across operations on the same seed.  ``work_per_op()`` is the units of
work (CPIs, realizations, cubes) one operation completes.  Inputs come
only from the seed.

Calls into the package go through module attributes (``pipeline.x``,
never ``from ... import x``) so the tracer's wrappers see them.

Sizes are class attributes so the smoke test can shrink them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from rfclutter import challenge, cli, cofar, dsp, pipeline, rxsim, scenario, waveform


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_replay(data: challenge.ChallengeData, scn) -> None:
    """Check a loaded dataset against its scenario: the cube dimensions,
    and that the stored channels replayed with the scenario's own
    waveform give the stored cubes byte for byte.

    The waveform is rebuilt in memory: the complex64 copy in the
    dataset only agrees to about 5e-8 relative.
    """
    _require(data.num_cpis == scn.num_cpis, f"{data.num_cpis} CPIs, want {scn.num_cpis}")
    wf = pipeline.default_waveform(scn)
    for cpi, cube in enumerate(data.cubes):
        _require(cube.dims == (1,) + scn.export_dims[1:],
                 f"cube {cpi} dims {cube.dims}, want {scn.export_dims}")
        replay = rxsim.simulate_cube(data.clutter_irs[cpi], data.target_irs[cpi], wf,
                                     scn.noise_power, seed=scn.seed,
                                     carrier_hz=scn.carrier_hz, cpi_index=cpi)
        _require(replay.samples.astype(np.complex64).tobytes() == cube.samples.tobytes(),
                 f"replaying the stored channels does not reproduce cube {cpi}")


class Workload:
    name = ""
    throughput = ""         # the workload's own name for work_per_ref_s

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def dims(self) -> dict:
        """Scenario dimensions actually run, for the provenance record."""
        scn = self.scn
        return {"export_dims": list(scn.export_dims),
                "patches": self.scene.num_responses if self.scene is not None else 0,
                "patch_size_m": scn.patch_size_m}


class _Export(Workload):
    """An operation exports a dataset into its own directory; the check
    verifies it and the digest is the manifest's hash."""

    def _out(self, i: int) -> Path:
        return self.workdir / f"op{i}"

    def check(self, out: Path) -> None:
        # read_challenge verifies every checksum in the manifest
        check_replay(challenge.read_challenge(out), self.scn)

    def digest(self, out: Path) -> str:
        sha = hashlib.sha256((out / challenge.MANIFEST_NAME).read_bytes()).hexdigest()
        shutil.rmtree(out)
        return sha

    def work_per_op(self) -> int:
        return self.scn.num_cpis


class DeskDataset(_Export):
    """``rfclutter simulate --preset scenario1`` at desk scale, in process."""

    name = "desk-dataset"
    throughput = "cpi_per_s"
    SCALE = 0.125

    def setup(self) -> None:
        self.scn = scenario.generate_scenario1(scale=self.SCALE, seed=self.seed)
        self.scene = pipeline.build_scene(self.scn)

    def operation(self, i: int) -> Path:
        out = self._out(i)
        argv = ["simulate", "--preset", "scenario1", "--scale", str(self.SCALE),
                "--seed", str(self.seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        _require(rc == 0, f"rfclutter simulate exited {rc}")
        return out


class QuarterCpi(_Export):
    """One CPI of scenario 2 (buildings) at quarter scale with wind, so
    the sea surface modulates the water patches."""

    name = "quarter-cpi"
    throughput = "cpi_per_s"
    SCALE = 0.25

    def setup(self) -> None:
        self.scn = replace(scenario.generate_scenario2(scale=self.SCALE, seed=self.seed),
                           wind_speed_mps=12.0, num_cpis=1)
        self.scene = pipeline.build_scene(self.scn)

    def operation(self, i: int) -> Path:
        run = pipeline.simulate_scenario(self.scn, scene=self.scene)
        return challenge.export_challenge(run, self._out(i)).parent


class WaveformDesign(Workload):
    """Channel moments from fresh clutter realizations, then the
    SCNR-optimal waveform against them."""

    name = "waveform-design"
    throughput = "realizations_per_s"
    SCALE = 0.125
    REALIZATIONS = 16

    def setup(self) -> None:
        self.scn = scenario.generate_scenario1(scale=self.SCALE, seed=self.seed)
        self.scene = pipeline.build_scene(self.scn)

    def operation(self, i: int):
        moments = pipeline.channel_moments(self.scn, self.scene,
                                           realizations=self.REALIZATIONS)
        s_opt, optimal = cofar.optimal_waveform(moments)
        lfm = cofar.scnr(pipeline.default_waveform(self.scn).samples, moments)
        return s_opt, optimal, lfm

    def check(self, result) -> None:
        _, optimal, lfm = result
        _require(np.isfinite(optimal) and np.isfinite(lfm),
                 f"non-finite SCNR: optimal {optimal}, LFM {lfm}")
        _require(optimal >= lfm, f"optimal SCNR {optimal} below the LFM's {lfm}")

    def digest(self, result) -> str:
        s_opt, optimal, lfm = result
        h = hashlib.sha256(np.ascontiguousarray(s_opt).tobytes())
        h.update(np.array([optimal, lfm]).tobytes())
        return h.hexdigest()

    def work_per_op(self) -> int:
        return self.REALIZATIONS


class WaveformReplay(Workload):
    """Swap the waveform without resynthesis: load a stored full-size
    dataset and run phase-code waveforms through its channels."""

    name = "waveform-replay"
    throughput = "cubes_per_s"
    SCALE = 1.0
    PATCH_SIZE_M = 240.0
    WAVEFORMS = 4

    def setup(self) -> None:
        self.scn = replace(scenario.generate_scenario1(scale=self.SCALE, seed=self.seed),
                           patch_size_m=self.PATCH_SIZE_M, num_cpis=1)
        run = pipeline.simulate_scenario(self.scn)
        self.scene = run.scene
        self.dataset = self.workdir / "dataset"
        shutil.rmtree(self.dataset, ignore_errors=True)
        challenge.export_challenge(run, self.dataset)
        chips = self.scn.num_waveform_samples
        self.waveforms = [
            waveform.phase_code(chips, self.scn.sample_rate,
                                seed=int(np.random.SeedSequence([self.seed, k])
                                         .generate_state(1)[0]))
            for k in range(self.WAVEFORMS)]

    def operation(self, i: int):
        data = challenge.read_challenge(self.dataset)
        noise_power = float(data.manifest["noise_power"])
        carrier = float(data.manifest["carrier"])
        maps = []
        for wf in self.waveforms:
            cube = rxsim.simulate_cube(data.clutter_irs[0], data.target_irs[0], wf,
                                       noise_power, seed=data.seed,
                                       carrier_hz=carrier, cpi_index=0)
            map_db, _ = dsp.range_doppler_map(cube, wf, np.ones(cube.num_channels))
            maps.append(map_db)
        return data, maps

    def check(self, result) -> None:
        data, maps = result
        check_replay(data, self.scn)
        for map_db in maps:
            _require(bool(np.all(np.isfinite(map_db))), "non-finite range-Doppler map")

    def digest(self, result) -> str:
        # the cubes are not kept (four hold ~300 MB); each map
        # beamforms every channel of its cube
        h = hashlib.sha256()
        for map_db in result[1]:
            h.update(map_db.tobytes())
        return h.hexdigest()

    def work_per_op(self) -> int:
        return self.WAVEFORMS


WORKLOADS = {w.name: w for w in (DeskDataset, QuarterCpi, WaveformDesign, WaveformReplay)}
