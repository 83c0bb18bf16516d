"""Challenge dataset export: per-CPI truth channels + receiver cubes.

A dataset directory holds, per CPI, the clutter impulse response, the
target impulse response (when the scenario has targets), and the
simulated receiver cube, plus the probing waveform and the canonical
scenario text.  `manifest.txt` lists the run parameters and the SHA-256
of every payload file, so a consumer can verify integrity and
provenance before training or scoring against the data.  The `rng`
line names the generator behind the per-scatterer draws.

Manifest lines follow the same `key = value` shape as scenario files;
the `file` key repeats, one line per payload:

    file = cube_cpi000.rfcube <sha256 hex>
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

from .channel import ChannelImpulseResponse, read_ir, write_ir
from .errors import ConfigurationError
from .pipeline import ScenarioRun
from .rxsim import DataCube, read_cube, write_cube
from .scenario import scenario_hash, scenario_text
from .seeding import RNG_NAME
from .waveform import Waveform, read_waveform, write_waveform

MANIFEST_NAME = "manifest.txt"
FORMAT_TAG = "rfchallenge-1"


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def export_challenge(run: ScenarioRun, out_dir) -> Path:
    """Write a run to `out_dir`; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scn = run.scenario

    names: list[str] = []

    wf_name = "waveform.rfwav"
    write_waveform(out / wf_name, run.waveform)
    names.append(wf_name)

    scn_name = "scenario.txt"
    (out / scn_name).write_text(scenario_text(scn), encoding="utf-8")
    names.append(scn_name)

    for r in run.results:
        cube_name = f"cube_cpi{r.cpi:03d}.rfcube"
        write_cube(out / cube_name, r.cube)
        names.append(cube_name)
        if r.clutter_ir is not None:
            name = f"clutter_cpi{r.cpi:03d}.rfgir"
            write_ir(out / name, r.clutter_ir)
            names.append(name)
        if r.target_ir is not None:
            name = f"target_cpi{r.cpi:03d}.rfgir"
            write_ir(out / name, r.target_ir)
            names.append(name)

    dims = scn.export_dims
    lines = [
        f"format = {FORMAT_TAG}",
        f"scenario = {scn.name}",
        f"scenario_hash = {scenario_hash(scn)}",
        f"seed = {scn.seed}",
        f"rng = {RNG_NAME}",
        f"cpis = {dims[0]}",
        f"channels = {dims[1]}",
        f"pulses = {dims[2]}",
        f"range_samples = {dims[3]}",
        f"sample_rate = {scn.sample_rate!r}",
        f"prf = {scn.prf_hz!r}",
        f"carrier = {scn.carrier_hz!r}",
        f"noise_power = {scn.noise_power!r}",
    ]
    for name in names:
        lines.append(f"file = {name} {_sha256_file(out / name)}")
    manifest = out / MANIFEST_NAME
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


@dataclass
class ChallengeData:
    """A verified challenge directory, loaded."""

    manifest: dict[str, str]
    files: dict[str, str]                       # name -> sha256
    waveform: Waveform
    cubes: list[DataCube]
    clutter_irs: list[ChannelImpulseResponse | None]
    target_irs: list[ChannelImpulseResponse | None] = field(default_factory=list)

    @property
    def num_cpis(self) -> int:
        return len(self.cubes)

    @property
    def seed(self) -> int:
        return int(self.manifest["seed"])


def _parse_manifest(text: str) -> tuple[dict[str, str], dict[str, str]]:
    fields: dict[str, str] = {}
    files: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"manifest line {lineno}: expected 'key = value'")
        key, raw = (s.strip() for s in stripped.split("=", 1))
        if key == "file":
            parts = raw.split()
            if len(parts) != 2:
                raise ConfigurationError(
                    f"manifest line {lineno}: file entries need '<name> <sha256>'")
            files[parts[0]] = parts[1]
        else:
            if key in fields:
                raise ConfigurationError(f"manifest line {lineno}: duplicate key {key}")
            fields[key] = raw
    return fields, files


def _manifest_int(fields: dict[str, str], key: str, minimum: int) -> int:
    """The integer value of a required manifest key, which must be at
    least `minimum`."""
    if key not in fields:
        raise ConfigurationError(f"manifest missing required key {key}")
    try:
        value = int(fields[key])
    except ValueError:
        raise ConfigurationError(
            f"manifest {key} must be an integer, got {fields[key]!r}") from None
    if value < minimum:
        raise ConfigurationError(f"manifest {key} must be at least {minimum}, got {value}")
    return value


def read_challenge(path) -> ChallengeData:
    """Load and verify a challenge directory (or its manifest path).

    Every listed file must exist and match its recorded SHA-256;
    anything else raises ConfigurationError.  Each file is read once:
    the payload files are hashed over the bytes that are parsed.
    """
    p = Path(path)
    root = p.parent if p.is_file() else p
    manifest_path = p if p.is_file() else p / MANIFEST_NAME
    if not manifest_path.exists():
        raise ConfigurationError(f"no {MANIFEST_NAME} under {root}")
    fields, files = _parse_manifest(manifest_path.read_text(encoding="utf-8"))

    if fields.get("format") != FORMAT_TAG:
        raise ConfigurationError(
            f"unsupported dataset format {fields.get('format')!r}")
    _manifest_int(fields, "seed", 0)
    num_cpis = _manifest_int(fields, "cpis", 1)
    want = tuple(_manifest_int(fields, key, 1) for key in ("channels", "pulses", "range_samples"))

    for name in files:
        if os.path.basename(name) != name:
            raise ConfigurationError(f"manifest file name escapes the directory: {name!r}")
        if not (root / name).exists():
            raise ConfigurationError(f"dataset file missing: {name}")

    verified: set[str] = set()

    def parse(name, reader, **kwargs):
        """Read one listed payload file; the read hashes the bytes it parses."""
        verified.add(name)
        return reader(root / name, sha256=files[name], **kwargs)

    cubes = []
    clutter_irs: list[ChannelImpulseResponse | None] = []
    target_irs: list[ChannelImpulseResponse | None] = []
    for cpi in range(num_cpis):
        cube_name = f"cube_cpi{cpi:03d}.rfcube"
        if cube_name not in files:
            raise ConfigurationError(f"manifest lists no {cube_name}")
        cubes.append(parse(cube_name, read_cube))
        clutter_name = f"clutter_cpi{cpi:03d}.rfgir"
        clutter_irs.append(parse(clutter_name, read_ir, kind="clutter")
                           if clutter_name in files else None)
        target_name = f"target_cpi{cpi:03d}.rfgir"
        target_irs.append(parse(target_name, read_ir, kind="target")
                          if target_name in files else None)
        if clutter_irs[-1] is None and target_irs[-1] is None:
            raise ConfigurationError(
                f"CPI {cpi} has neither a clutter nor a target channel file")

    if "waveform.rfwav" not in files:
        raise ConfigurationError("manifest lists no waveform.rfwav")
    wf = parse("waveform.rfwav", read_waveform)

    for name in files.keys() - verified:
        actual = _sha256_file(root / name)
        if actual != files[name]:
            raise ConfigurationError(
                f"checksum mismatch for {name}: manifest {files[name][:12]}..., "
                f"file {actual[:12]}...")

    for cpi, cube in enumerate(cubes):
        got = (cube.num_channels, cube.num_pulses, cube.num_range_samples)
        if got != want:
            raise ConfigurationError(
                f"cube_cpi{cpi:03d} dimensions {got} disagree with the manifest {want}")

    return ChallengeData(manifest=fields, files=files, waveform=wf, cubes=cubes,
                         clutter_irs=clutter_irs, target_irs=target_irs)
