"""Dataset export/import: manifest integrity, round trips, tamper detection."""

import builtins
import hashlib
import struct
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rfclutter import binfile, challenge
from rfclutter.challenge import export_challenge, read_challenge
from rfclutter.channel import ChannelImpulseResponse, read_ir, write_ir
from rfclutter.dsp import range_doppler_map
from rfclutter.errors import ConfigurationError
from rfclutter.pipeline import simulate_scenario
from rfclutter.rxsim import simulate_cube
from rfclutter.scenario import DESK_SCALE, Scenario, TargetSpec, generate_scenario1
from rfclutter.terrain import ElevationGrid
from rfclutter.waveform import Waveform, read_waveform, write_waveform


def small_run(num_cpis=2, seed=5, targets=True):
    scn = Scenario(
        name="export-check",
        carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2000.0,
        num_pulses=8, num_channels=2, num_cpis=num_cpis,
        pulse_duration_s=1e-6, noise_power=1e-18, swath_m=1200.0,
        tx_position=np.array([100.0, 600.0, 300.0]),
        tx_velocity=np.array([0.0, 25.0, 0.0]),
        dem=ElevationGrid(heights=np.zeros((40, 40)), cell_size=30.0),
        patch_size_m=60.0,
        targets=[TargetSpec(position=[900.0, 600.0, 0.0],
                            velocity=[10.0, 0.0, 0.0], rcs=100.0)] if targets else [],
        seed=seed,
    )
    return simulate_scenario(scn)


def read_tree(root):
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


def test_export_then_read_round_trip(tmp_path):
    run = small_run()
    manifest = export_challenge(run, tmp_path / "ds")
    assert manifest.name == "manifest.txt"
    data = read_challenge(tmp_path / "ds")
    assert data.num_cpis == 2
    assert data.seed == 5
    assert data.manifest["scenario"] == "export-check"
    assert int(data.manifest["channels"]) == 2
    assert int(data.manifest["range_samples"]) == run.cubes[0].num_range_samples
    for cpi, r in enumerate(run.results):
        # cube payloads are complex64 on disk
        np.testing.assert_array_equal(
            data.cubes[cpi].samples, r.cube.samples.astype(np.complex64))
        for back, ir in ((data.clutter_irs[cpi], r.clutter_ir),
                         (data.target_irs[cpi], r.target_ir)):
            np.testing.assert_array_equal(back.support, ir.support)
            np.testing.assert_array_equal(back.taps, ir.taps)
            assert back.num_taps == ir.num_taps
    # waveform samples are float32 I/Q on disk
    np.testing.assert_array_equal(
        data.waveform.samples, run.waveform.samples.astype(np.complex64))


def test_a_fresh_cube_and_its_exported_file_map_to_the_same_bytes(tmp_path):
    """The cube in memory is the cube on disk: compressed with the same
    waveform, a fresh desk-scale CPI and its exported cube file give the
    same range-Doppler map and peak list, bit for bit."""
    scn = replace(generate_scenario1(scale=DESK_SCALE, seed=1), num_cpis=1)
    run = simulate_scenario(scn)
    export_challenge(run, tmp_path / "ds")
    stored = read_challenge(tmp_path / "ds").cubes[0]
    weights = np.ones(scn.num_channels)
    fresh_map, fresh_peaks = range_doppler_map(run.results[0].cube, run.waveform, weights)
    stored_map, stored_peaks = range_doppler_map(stored, run.waveform, weights)
    assert fresh_map.tobytes() == stored_map.tobytes()
    assert fresh_peaks and fresh_peaks == stored_peaks


def test_reexport_is_byte_identical(tmp_path):
    run = small_run()
    export_challenge(run, tmp_path / "a")
    export_challenge(run, tmp_path / "b")
    a, b = read_tree(tmp_path / "a"), read_tree(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical exports"


def test_manifest_accepts_its_own_path(tmp_path):
    run = small_run(num_cpis=1)
    manifest = export_challenge(run, tmp_path / "ds")
    via_dir = read_challenge(tmp_path / "ds")
    via_file = read_challenge(manifest)
    assert via_dir.files == via_file.files


def test_target_only_dataset(tmp_path):
    run = small_run(num_cpis=1)
    # strip terrain by exporting a run whose scenario has no DEM
    scn = run.scenario
    scn2 = Scenario(name="t-only", carrier_hz=scn.carrier_hz, bandwidth_hz=scn.bandwidth_hz,
                    prf_hz=scn.prf_hz, num_pulses=scn.num_pulses, num_channels=scn.num_channels,
                    num_cpis=1, pulse_duration_s=scn.pulse_duration_s,
                    noise_power=scn.noise_power, swath_m=scn.swath_m,
                    tx_position=scn.tx_position, tx_velocity=scn.tx_velocity,
                    targets=list(scn.targets), seed=scn.seed)
    run2 = simulate_scenario(scn2)
    export_challenge(run2, tmp_path / "ds")
    data = read_challenge(tmp_path / "ds")
    assert data.clutter_irs == [None]
    assert data.target_irs[0] is not None


def test_tampered_payload_is_rejected(tmp_path):
    run = small_run(num_cpis=1)
    export_challenge(run, tmp_path / "ds")
    cube_path = tmp_path / "ds" / "cube_cpi000.rfcube"
    blob = bytearray(cube_path.read_bytes())
    blob[-1] ^= 0xFF
    cube_path.write_bytes(bytes(blob))
    with pytest.raises(ConfigurationError, match="checksum mismatch"):
        read_challenge(tmp_path / "ds")


@pytest.mark.parametrize("name", ["clutter_cpi000.rfgir", "target_cpi000.rfgir",
                                  "waveform.rfwav", "scenario.txt"])
def test_tampering_any_listed_file_is_rejected(tmp_path, name):
    export_challenge(small_run(num_cpis=1), tmp_path / "ds")
    path = tmp_path / "ds" / name
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigurationError, match="checksum mismatch"):
        read_challenge(tmp_path / "ds")


@pytest.mark.parametrize("bad", [float("nan"), -1.0])
def test_relisted_ir_with_a_bad_delay_origin_is_rejected(tmp_path, bad):
    """An IR header edited to a bad delay origin, with its digest
    relisted in the manifest, still fails to load."""
    export_challenge(small_run(num_cpis=1), tmp_path / "ds")
    path = tmp_path / "ds" / "clutter_cpi000.rfgir"
    old = hashlib.sha256(path.read_bytes()).hexdigest()
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, 28, bad)
    path.write_bytes(bytes(blob))
    manifest = tmp_path / "ds" / "manifest.txt"
    text = manifest.read_text()
    assert old in text
    manifest.write_text(text.replace(old, hashlib.sha256(bytes(blob)).hexdigest()))
    with pytest.raises(ConfigurationError, match="delay_origin"):
        read_challenge(tmp_path / "ds")


def test_each_dataset_file_is_read_once(tmp_path, monkeypatch):
    """The payload files are hashed over the bytes that are parsed, not
    read a second time to hash."""
    export_challenge(small_run(num_cpis=2), tmp_path / "ds")
    opened = Counter()

    def counting_open(file, *args, **kwargs):
        opened[Path(file).name] += 1
        return builtins.open(file, *args, **kwargs)

    for module in (binfile, challenge):
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    data = read_challenge(tmp_path / "ds")
    assert set(opened) == set(data.files)
    assert set(opened.values()) == {1}


def test_export_hashes_each_file_as_it_is_written(tmp_path, monkeypatch):
    """Every payload file is opened once, to be written, and never read
    back to hash it; the manifest digests are those of the bytes on
    disk."""
    run = small_run(num_cpis=2)
    opened = []

    def counting_open(file, mode="r", *args, **kwargs):
        opened.append((Path(file).name, mode))
        return builtins.open(file, mode, *args, **kwargs)

    for module in (binfile, challenge):
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    manifest = export_challenge(run, tmp_path / "ds")
    monkeypatch.undo()
    listed = [line.split()[2:] for line in manifest.read_text().splitlines()
              if line.startswith("file = ")]
    assert sorted(opened) == sorted((name, "wb") for name, _ in listed)
    for name, digest in listed:
        assert digest == hashlib.sha256((tmp_path / "ds" / name).read_bytes()).hexdigest()


def test_simulate_export_and_read_never_build_dense_taps(tmp_path, monkeypatch):
    """Cube assembly, export and the dataset reader work on the occupied
    taps only: none of them asks a channel for its dense tap array."""
    def forbidden(self):
        raise AssertionError("dense() called")

    monkeypatch.setattr(ChannelImpulseResponse, "dense", forbidden)
    run = small_run(num_cpis=1)
    export_challenge(run, tmp_path / "ds")
    data = read_challenge(tmp_path / "ds")
    cube = simulate_cube(data.clutter_irs[0], data.target_irs[0], data.waveform,
                         run.scenario.noise_power, seed=run.scenario.seed)
    assert cube.dims == data.cubes[0].dims
    assert 0 < data.clutter_irs[0].support.size < data.clutter_irs[0].num_taps
    assert data.target_irs[0].support.size == 1


def flip_last_byte(path):
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("earlier, later", [
    ("waveform.rfwav", "target_cpi001.rfgir"),
    ("scenario.txt", "cube_cpi000.rfcube"),
    ("clutter_cpi000.rfgir", "target_cpi001.rfgir"),
    ("cube_cpi000.rfcube", "clutter_cpi000.rfgir"),
    ("target_cpi000.rfgir", "cube_cpi001.rfcube"),
])
def test_two_bad_files_raise_the_earlier_ones_error(tmp_path, set_worker_count, workers,
                                                    earlier, later):
    """Files are verified in parallel, but the error raised is that of
    the bad file listed first in the manifest, whatever file the
    workers reach first.  The later file is truncated, so its own error
    would read differently."""
    export_challenge(small_run(num_cpis=2), tmp_path / "ds")
    names = list(read_challenge(tmp_path / "ds").files)
    assert names.index(earlier) < names.index(later)
    flip_last_byte(tmp_path / "ds" / earlier)
    (tmp_path / "ds" / later).write_bytes((tmp_path / "ds" / later).read_bytes()[:-3])
    set_worker_count(workers)
    with pytest.raises(ConfigurationError, match="checksum mismatch") as err:
        read_challenge(tmp_path / "ds")
    assert earlier in str(err.value)
    assert later not in str(err.value)


def test_export_manifest_does_not_depend_on_the_worker_count(tmp_path, set_worker_count):
    """The files are hashed on the pool but listed in the order they are
    written, with the same digests, at any worker count."""
    run = small_run()
    manifests = []
    for workers in (1, 2, 3):
        set_worker_count(workers)
        manifests.append(export_challenge(run, tmp_path / f"w{workers}").read_bytes())
    assert manifests[1] == manifests[0] and manifests[2] == manifests[0]
    listed = [line.split()[2:] for line in manifests[0].decode().splitlines()
              if line.startswith("file = ")]
    assert [name for name, _ in listed] == [
        "waveform.rfwav", "scenario.txt",
        "cube_cpi000.rfcube", "clutter_cpi000.rfgir", "target_cpi000.rfgir",
        "cube_cpi001.rfcube", "clutter_cpi001.rfgir", "target_cpi001.rfgir"]
    for name, digest in listed:
        assert digest == hashlib.sha256((tmp_path / "w1" / name).read_bytes()).hexdigest()


def test_missing_file_and_bad_manifest(tmp_path):
    run = small_run(num_cpis=1)
    export_challenge(run, tmp_path / "ds")
    (tmp_path / "ds" / "waveform.rfwav").unlink()
    with pytest.raises(ConfigurationError, match="missing"):
        read_challenge(tmp_path / "ds")

    with pytest.raises(ConfigurationError, match="no manifest.txt"):
        read_challenge(tmp_path / "empty")

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.txt").write_text("format = something-else\n")
    with pytest.raises(ConfigurationError, match="unsupported dataset format"):
        read_challenge(bad)

    noeq = tmp_path / "noeq"
    noeq.mkdir()
    (noeq / "manifest.txt").write_text("format rfchallenge-2\n")
    with pytest.raises(ConfigurationError, match="line 1"):
        read_challenge(noeq)


def test_path_escape_rejected(tmp_path):
    run = small_run(num_cpis=1)
    manifest = export_challenge(run, tmp_path / "ds")
    text = manifest.read_text()
    text += "file = ../outside.bin 0000000000000000000000000000000000000000000000000000000000000000\n"
    manifest.write_text(text)
    with pytest.raises(ConfigurationError, match="escapes"):
        read_challenge(tmp_path / "ds")


def test_a_repeated_file_entry_is_rejected(tmp_path):
    """A second `file` line for one name, before the real one, would
    otherwise leave the earlier digest unchecked."""
    manifest = export_challenge(small_run(num_cpis=1), tmp_path / "ds")
    lines = manifest.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("file = cube_cpi000"))
    lines.insert(first, "file = cube_cpi000.rfcube " + "0" * 64)
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError,
                       match=f"line {first + 2}: duplicate file cube_cpi000.rfcube"):
        read_challenge(tmp_path / "ds")


def relist(root, name, blob):
    """Replace a dataset file by `blob` and its digest in the manifest."""
    path = root / name
    manifest = root / "manifest.txt"
    text = manifest.read_text()
    old = hashlib.sha256(path.read_bytes()).hexdigest()
    assert old in text
    path.write_bytes(blob)
    manifest.write_text(text.replace(old, hashlib.sha256(blob).hexdigest()))


def rewritten_ir(ir, taps=None, sample_rate=None, prf=None):
    return ChannelImpulseResponse.from_dense(ir.dense() if taps is None else taps,
                                             sample_rate=sample_rate or ir.sample_rate,
                                             prf=prf or ir.prf, delay_origin=ir.delay_origin)


@pytest.mark.parametrize("name", ["clutter_cpi000.rfgir", "target_cpi000.rfgir"])
@pytest.mark.parametrize("change, message", [
    (lambda ir: rewritten_ir(ir, taps=ir.dense()[:, :, :-7]), "dimensions"),
    (lambda ir: rewritten_ir(ir, taps=ir.dense()[:1]), "dimensions"),
    (lambda ir: rewritten_ir(ir, taps=ir.dense()[:, :-1]), "dimensions"),
    (lambda ir: rewritten_ir(ir, sample_rate=2.0 * ir.sample_rate), "sample_rate"),
    (lambda ir: rewritten_ir(ir, prf=3.0 * ir.prf), "prf"),
])
def test_a_relisted_channel_must_match_the_manifest(tmp_path, name, change, message):
    """A channel file rewritten with other dimensions, sample rate or
    PRF, its digest relisted, fails to load."""
    export_challenge(small_run(num_cpis=1), tmp_path / "ds")
    path = tmp_path / "ds" / name
    write_ir(tmp_path / "new.rfgir", change(read_ir(path)))
    relist(tmp_path / "ds", name, (tmp_path / "new.rfgir").read_bytes())
    with pytest.raises(ConfigurationError, match=f"{name} {message}"):
        read_challenge(tmp_path / "ds")


def test_a_relisted_waveform_must_match_the_manifest_rate(tmp_path):
    export_challenge(small_run(num_cpis=1), tmp_path / "ds")
    wf = read_waveform(tmp_path / "ds" / "waveform.rfwav")
    write_waveform(tmp_path / "new.rfwav",
                   Waveform(samples=wf.samples, sample_rate=2.0 * wf.sample_rate))
    relist(tmp_path / "ds", "waveform.rfwav", (tmp_path / "new.rfwav").read_bytes())
    with pytest.raises(ConfigurationError, match="waveform sample rate .* manifest rate"):
        read_challenge(tmp_path / "ds")


@pytest.mark.parametrize("field, message", [(5, "sample_rate"), (6, "prf")])
def test_a_relisted_cube_must_match_the_manifest_rates(tmp_path, field, message):
    export_challenge(small_run(num_cpis=1), tmp_path / "ds")
    blob = bytearray((tmp_path / "ds" / "cube_cpi000.rfcube").read_bytes())
    header = struct.Struct("<8sIIIIdddd")
    fields = list(header.unpack_from(blob))
    fields[field] *= 2.0
    header.pack_into(blob, 0, *fields)
    relist(tmp_path / "ds", "cube_cpi000.rfcube", bytes(blob))
    with pytest.raises(ConfigurationError, match=f"cube_cpi000.rfcube {message}"):
        read_challenge(tmp_path / "ds")


@pytest.mark.parametrize("key", ["sample_rate", "prf"])
@pytest.mark.parametrize("value", ["fast", "0", "-1e6", "nan", "inf"])
def test_a_bad_manifest_rate_is_rejected(tmp_path, key, value):
    manifest = export_challenge(small_run(num_cpis=1), tmp_path / "ds")
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in manifest.read_text().splitlines()]
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigurationError, match=f"manifest {key}"):
        read_challenge(tmp_path / "ds")
