"""Challenge dataset export: per-CPI truth channels + receiver cubes.

A dataset directory holds, per CPI, the clutter impulse response, the
target impulse response (when the scenario has targets), and the
simulated receiver cube, plus the probing waveform and the canonical
scenario text.  `manifest.txt` lists the run parameters and the SHA-256
of every payload file, so a consumer can verify integrity and
provenance before training or scoring against the data.  The `rng`
line names the generator behind the per-scatterer draws.

Export writes and hashes, and `read_challenge` reads and verifies, the
payload files on the process's worker pool (`workers`), one file per
task.
The manifest bytes, and the error raised for a dataset with several
bad files (that of the earliest in the manifest), do not depend on the
worker count.

Manifest lines follow the same `key = value` shape as scenario files;
the `file` key repeats, one line per payload:

    file = cube_cpi000.rfcube <sha256 hex>
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .binfile import write_framed
from .channel import ChannelImpulseResponse, read_ir, write_ir
from .errors import ConfigurationError
from .pipeline import ScenarioRun
from .rxsim import DataCube, check_waveform_rate, read_cube, write_cube
from .scenario import scenario_hash, scenario_text
from .seeding import RNG_NAME
from .waveform import Waveform, read_waveform, write_waveform
from .workers import run_blocks

MANIFEST_NAME = "manifest.txt"
FORMAT_TAG = "rfchallenge-2"


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def export_challenge(run: ScenarioRun, out_dir) -> Path:
    """Write a run to `out_dir`; returns the manifest path.

    Each payload file is serialized, written and hashed in one block of
    the shared worker pool, so no file is read back (a cube, complex64
    in memory as on disk, is written without a copy); the files are
    listed in a fixed order (waveform, scenario, then each CPI's cube,
    clutter and target channel), whatever the worker count."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scn = run.scenario

    # (file name, writer returning the file's digest, what it writes)
    files: list[tuple[str, Callable, object]] = [
        ("waveform.rfwav", write_waveform, run.waveform),
        ("scenario.txt", write_framed, scenario_text(scn).encode("utf-8")),
    ]
    for r in run.results:
        files.append((f"cube_cpi{r.cpi:03d}.rfcube", write_cube, r.cube))
        for kind, ir in (("clutter", r.clutter_ir), ("target", r.target_ir)):
            if ir is not None:
                files.append((f"{kind}_cpi{r.cpi:03d}.rfgir", write_ir, ir))
    digests = [""] * len(files)

    def write_files(block: range) -> None:
        for i in block:
            name, write, item = files[i]
            digests[i] = write(out / name, item)

    run_blocks(write_files, len(files))   # writes and hashing release the GIL

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
    lines += [f"file = {name} {digest}" for (name, _, _), digest in zip(files, digests)]
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
            if parts[0] in files:
                raise ConfigurationError(f"manifest line {lineno}: duplicate file {parts[0]}")
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


def _manifest_float(fields: dict[str, str], key: str, zero_ok: bool = False) -> float:
    """The value of a required manifest key, finite and positive (or
    non-negative, with `zero_ok`)."""
    if key not in fields:
        raise ConfigurationError(f"manifest missing required key {key}")
    try:
        value = float(fields[key])
    except ValueError:
        raise ConfigurationError(
            f"manifest {key} must be a number, got {fields[key]!r}") from None
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        sign = "non-negative" if zero_ok else "positive"
        raise ConfigurationError(f"manifest {key} must be {sign} and finite, got {value}")
    return value


def _verify_files(root: Path, files: dict[str, str],
                  readers: dict[str, Callable]) -> dict[str, object]:
    """Read and verify every listed file on the shared pool; returns
    `readers[name](path, sha256=...)` for each listed name that has a
    reader.

    Each file is read once: a file with a reader is hashed over the
    bytes that it parses, any other file is only hashed.  File reads and
    SHA-256 updates release the GIL, so the files are read in parallel.
    When several files fail, the error of the earliest one in the
    manifest is raised, whatever the worker count.
    """
    names = list(files)
    loaded: list[object] = [None] * len(names)
    errors: list[Exception | None] = [None] * len(names)

    def verify(block: range) -> None:
        for i in block:
            name = names[i]
            reader = readers.get(name)
            try:
                if reader is not None:
                    loaded[i] = reader(root / name, sha256=files[name])
                    continue
                actual = _sha256_file(root / name)
                if actual != files[name]:
                    raise ConfigurationError(
                        f"checksum mismatch for {name}: manifest {files[name][:12]}..., "
                        f"file {actual[:12]}...")
            except (ConfigurationError, OSError) as exc:   # raised in manifest order below
                errors[i] = exc

    run_blocks(verify, len(names))
    first = next((exc for exc in errors if exc is not None), None)
    if first is not None:
        raise first
    return {name: value for name, value in zip(names, loaded) if name in readers}


def read_challenge(path) -> ChallengeData:
    """Load and verify a challenge directory (or its manifest path).

    The manifest must give a positive, finite carrier and a finite,
    non-negative noise power, which a replay needs.  Every listed file
    must exist and match its recorded SHA-256, and every cube, channel
    and waveform file must have the manifest's dimensions, sample rate
    and PRF (a waveform has no PRF; a channel of L taps spans L + P - 1
    range samples for the waveform's P), and every cube its carrier and
    noise power, each value to 1e-6 relative; anything else raises
    ConfigurationError.  The files are read and verified on the shared
    worker pool, each once (`_verify_files`).
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
    rate = _manifest_float(fields, "sample_rate")
    prf = _manifest_float(fields, "prf")
    carrier = _manifest_float(fields, "carrier")
    noise_power = _manifest_float(fields, "noise_power", zero_ok=True)

    for name in files:
        if os.path.basename(name) != name:
            raise ConfigurationError(f"manifest file name escapes the directory: {name!r}")
        if not (root / name).exists():
            raise ConfigurationError(f"dataset file missing: {name}")

    readers: dict[str, Callable] = {"waveform.rfwav": read_waveform}
    for cpi in range(num_cpis):
        cube_name = f"cube_cpi{cpi:03d}.rfcube"
        if cube_name not in files:
            raise ConfigurationError(f"manifest lists no {cube_name}")
        readers[cube_name] = read_cube
        channel_names = [f"{kind}_cpi{cpi:03d}.rfgir" for kind in ("clutter", "target")]
        if not any(name in files for name in channel_names):
            raise ConfigurationError(
                f"CPI {cpi} has neither a clutter nor a target channel file")
        readers.update(dict.fromkeys(channel_names, read_ir))
    if "waveform.rfwav" not in files:
        raise ConfigurationError("manifest lists no waveform.rfwav")

    loaded = _verify_files(root, files, readers)
    cubes = [loaded[f"cube_cpi{cpi:03d}.rfcube"] for cpi in range(num_cpis)]
    clutter_irs = [loaded.get(f"clutter_cpi{cpi:03d}.rfgir") for cpi in range(num_cpis)]
    target_irs = [loaded.get(f"target_cpi{cpi:03d}.rfgir") for cpi in range(num_cpis)]
    wf = loaded.pop("waveform.rfwav")
    check_waveform_rate(wf, rate, "manifest")

    for name, item in loaded.items():
        if isinstance(item, DataCube):
            got = (item.num_channels, item.num_pulses, item.num_range_samples)
        else:
            got = (item.num_channels, item.num_pulses, item.num_taps + wf.num_samples - 1)
        if got != want:
            raise ConfigurationError(
                f"{name} dimensions {got} disagree with the manifest {want}")
        checks = [("sample_rate", item.sample_rate, rate), ("prf", item.prf, prf)]
        if isinstance(item, DataCube):
            checks += [("carrier", item.carrier_hz, carrier),
                       ("noise_power", item.noise_power, noise_power)]
        for key, value, expected in checks:
            if abs(value - expected) > 1e-6 * expected:
                raise ConfigurationError(
                    f"{name} {key} {value} disagrees with the manifest {expected}")

    return ChallengeData(manifest=fields, files=files, waveform=wf, cubes=cubes,
                         clutter_irs=clutter_irs, target_irs=target_irs)
