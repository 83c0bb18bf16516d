"""Command line front end.

Verbs:

  simulate        run a scenario, export cubes + truth channels + manifest
  clutter-map     per-patch link-budget raster (CSV + PGM)
  los-map         per-patch visibility raster (CSV + PGM)
  range-doppler   beamformed range-Doppler map and peak list of one cube file
  cofar-optimize  moment-based waveform optimization for one CPI
  mimo-sim        multi-transmitter run with per-code leakage report
  inspect         check and describe any data file or dataset manifest

Every verb but range-doppler and inspect reads a scenario, from a file
(--scenario) or a preset (--preset, sized by --scale); a flag that the
verb or the chosen input does not read is an error.  CPIs run one
after another; the stages inside a CPI use every available core, and
the output bytes do not depend on the core count.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import challenge, channel, cofar, dsp, pipeline, rxsim, waveform
from .errors import ConditioningError, ConfigurationError
from .scenario import (DESK_SCALE, Scenario, generate_scenario1,
                       generate_scenario2, load_scenario)
from .seeding import STREAM_MIMO_CODE, derive_seed
from .waveform import Waveform, phase_code, read_waveform, write_waveform

_PRESETS = {
    "scenario1": generate_scenario1,
    "scenario2": generate_scenario2,
}


def add_scenario_args(p: argparse.ArgumentParser) -> None:
    """The flags that choose a scenario: --scenario, or --preset sized by
    --scale, and --seed; `load_scenario_args` reads them."""
    p.add_argument("--scenario", help="scenario file path")
    p.add_argument("--preset", choices=sorted(_PRESETS),
                   help="built-in scene instead of --scenario")
    p.add_argument("--scale", type=float, default=None,
                   help=f"preset size factor in (0, 1] (default {DESK_SCALE})")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")


def load_scenario_args(args) -> Scenario:
    """The scenario that `add_scenario_args`' flags name; a combination
    they do not allow, or a seed the scenario rejects, is a ConfigurationError."""
    if bool(args.scenario) == bool(args.preset):
        raise ConfigurationError("give one of --scenario and --preset")
    if args.scale is not None and not args.preset:
        raise ConfigurationError("--scale sizes a --preset, not a --scenario file")
    if args.scenario:
        scn = load_scenario(args.scenario)
    else:
        scn = _PRESETS[args.preset](scale=DESK_SCALE if args.scale is None else args.scale)
    if args.seed is not None:
        scn = replace(scn, seed=args.seed)
    return scn


def _out_dir(args) -> Path:
    """The --out directory, created if missing.  Every verb resolves it
    before simulating, so a bad path fails before any work is done."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out {out} is not a usable directory: {exc}") from exc
    return out


def cmd_simulate(args) -> int:
    scn = load_scenario_args(args)
    out = _out_dir(args)
    run = pipeline.simulate_scenario(scn)
    manifest = challenge.export_challenge(run, out)
    dims = scn.export_dims
    print(f"scenario {scn.name}: {dims[0]} CPIs x {dims[1]} channels x "
          f"{dims[2]} pulses x {dims[3]} range samples")
    print(f"wrote {manifest}")
    return 0


def cmd_clutter_map(args) -> int:
    dsp.check_levels(args.clip_db)
    scn = load_scenario_args(args)
    out = _out_dir(args)
    gm = pipeline.gain_map(scn, cpi=args.cpi)
    # normalize to the strongest patch for the image; CSV keeps raw dB
    dsp.write_grid_csv(out / "clutter_map.csv", gm.gains_db, "db")
    dsp.write_pgm(out / "clutter_map.pgm", gm.relative_db(), clip_db=args.clip_db)
    vis_pct = 100.0 * float(np.count_nonzero(gm.visible)) / gm.visible.size
    print(f"clutter map {gm.gains_db.shape[1]}x{gm.gains_db.shape[0]} patches "
          f"({gm.patch_size:.0f} m), {vis_pct:.1f}% visible")
    print(f"wrote {out / 'clutter_map.csv'} and .pgm")
    return 0


def cmd_los_map(args) -> int:
    scn = load_scenario_args(args)
    out = _out_dir(args)
    gm = pipeline.gain_map(scn, cpi=args.cpi)
    vis = gm.visible
    dsp.write_grid_csv(out / "los_map.csv", vis.astype(np.int64), "visible")
    dsp.write_pgm(out / "los_map.pgm", np.where(vis, 0.0, -dsp.DEFAULT_CLIP_DB))
    vis_pct = 100.0 * float(vis.mean())
    print(f"visibility {vis_pct:.1f}% over {vis.shape[1]}x{vis.shape[0]} patches")
    print(f"wrote {out / 'los_map.csv'} and .pgm")
    return 0


def cmd_range_doppler(args) -> int:
    dsp.check_levels(args.clip_db, args.peak_offset_db)
    out = _out_dir(args)
    cube = rxsim.read_cube(args.cube)
    wf = read_waveform(args.waveform)
    map_db, peaks = dsp.range_doppler_map(
        cube, wf, np.ones(cube.num_channels), window=args.window,
        clip_db=args.clip_db, peak_offset_db=args.peak_offset_db)
    # named after the cube file: cube_cpi003.rfcube gives rd_cpi003.*
    stem = "rd_" + Path(args.cube).stem.removeprefix("cube_")
    dsp.write_map_csv(out / f"{stem}.csv", map_db)
    dsp.write_pgm(out / f"{stem}.pgm", map_db, clip_db=args.clip_db)
    dsp.write_peaks_csv(out / f"{stem}_peaks.csv", peaks)
    print(f"map {map_db.shape[1]} range x {map_db.shape[0]} doppler bins, "
          f"{len(peaks)} peaks")
    print(f"wrote {stem}.csv, {stem}_peaks.csv and {stem}.pgm under {out}")
    return 0


def cmd_cofar_optimize(args) -> int:
    scn = load_scenario_args(args)
    out = _out_dir(args)
    moments = pipeline.channel_moments(scn, cpi=args.cpi, pulse=args.pulse,
                                       channel=args.channel,
                                       realizations=args.realizations)
    probe = pipeline.default_waveform(scn)
    # every number first, so a failure writes no file
    base = cofar.scnr(probe.samples, moments)
    s_opt, gain = cofar.optimal_waveform(moments)
    improvement_db = 10.0 * np.log10(gain / base)
    report = [("lfm_scnr", base), ("optimal_scnr", gain), ("improvement_db", improvement_db),
              ("max_gain_db", cofar.max_gain_db(moments))]
    wf_path = out / "optimal_waveform.rfwav"
    write_waveform(wf_path, Waveform(samples=s_opt, sample_rate=scn.sample_rate))
    with open(out / "cofar_report.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["quantity", "value"])
        w.writerows([name, repr(value)] for name, value in report)
    print(f"LFM SCNR {base:.4e}, optimal {gain:.4e} (+{improvement_db:.2f} dB)")
    print(f"wrote {wf_path} and cofar_report.csv")
    return 0


def cmd_mimo_sim(args) -> int:
    scn = load_scenario_args(args)
    out = _out_dir(args)
    scene = pipeline.build_scene(scn)
    tx_channels = pipeline.mimo_irs(scn, scene, cpi=args.cpi)
    num_tx = len(tx_channels)
    chips = scn.num_waveform_samples
    codes = [phase_code(chips, scn.sample_rate,
                        seed=derive_seed(scn.seed, STREAM_MIMO_CODE, t))
             for t in range(num_tx)]
    groups = list(zip(tx_channels, codes))
    cube = rxsim.assemble_cube(groups, scn.noise_power, scn.seed,
                               carrier_hz=scn.carrier_hz, cpi_index=args.cpi)
    singles = [rxsim.assemble_cube([group], 0.0, scn.seed,
                                   carrier_hz=scn.carrier_hz, cpi_index=args.cpi)
               for group in groups]
    # the leakage before any file, so a transmitter that reaches nothing writes none
    leak = dsp.cross_channel_leakage(singles, codes)
    rxsim.write_cube(out / "mimo_rx0.rfcube", cube)
    with open(out / "mimo_leakage.csv", "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["probe_tx", "reference_tx", "leakage_db"])
        for a in range(num_tx):
            for b in range(num_tx):
                w.writerow([a, b, repr(float(leak[a, b]))])
    worst = float(leak[~np.eye(num_tx, dtype=bool)].max()) if num_tx > 1 else float("-inf")
    print(f"{num_tx} transmitters, worst cross-code leakage {worst:.1f} dB")
    print(f"wrote mimo_rx0.rfcube and mimo_leakage.csv under {out}")
    return 0


# magic -> (kind, reader, description of what it read)
_FORMATS = {
    waveform._MAGIC: ("waveform", read_waveform,
                      lambda wf: f"  {wf.num_samples} samples at {wf.sample_rate:.0f} Hz"),
    channel._MAGIC: ("impulse response", channel.read_ir,
                     lambda ir: f"  {ir.num_channels} channels x {ir.num_pulses} pulses x "
                                f"{ir.num_taps} taps, {ir.support.size} occupied, "
                                f"fs {ir.sample_rate:.0f} Hz, PRF {ir.prf:.1f} Hz"),
    rxsim._MAGIC: ("data cube", rxsim.read_cube,
                   lambda cube: "  {} CPIs x {} channels x {} pulses x {} range samples\n"
                                .format(*cube.dims)
                                + f"  fs {cube.sample_rate:.0f} Hz, PRF {cube.prf:.1f} Hz, "
                                  f"carrier {cube.carrier_hz:.3e} Hz, "
                                  f"noise power {cube.noise_power:.3e}"),
}


def cmd_inspect(args) -> int:
    p = Path(args.path)
    if p.is_dir() or p.name == challenge.MANIFEST_NAME:
        data = challenge.read_challenge(p)
        print(f"dataset: scenario {data.manifest.get('scenario')}, "
              f"{data.num_cpis} CPIs, seed {data.seed}")
        print(f"scenario hash {data.manifest.get('scenario_hash', '')[:16]}...")
        print(f"{len(data.files)} files verified")
        return 0
    with open(p, "rb") as f:
        magic = f.read(8)
    if magic not in _FORMATS:
        raise ConfigurationError(f"unrecognized file magic {magic!r}")
    kind, read, describe = _FORMATS[magic]
    item = read(p)    # the whole file is checked, not only its header
    print(f"{p.name}: {kind}")
    print(describe(item))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rfclutter",
                                 description="site-specific radar clutter and "
                                             "target channel simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def scenario_verb(name: str, help: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        add_scenario_args(p)
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(func=func)
        return p

    scenario_verb("simulate", "run a scenario and export a dataset", cmd_simulate)

    p = scenario_verb("clutter-map", "per-patch gain raster", cmd_clutter_map)
    p.add_argument("--cpi", type=int, default=0)
    p.add_argument("--clip-db", type=float, default=dsp.DEFAULT_CLIP_DB)

    p = scenario_verb("los-map", "per-patch visibility raster", cmd_los_map)
    p.add_argument("--cpi", type=int, default=0)

    p = sub.add_parser("range-doppler", help="range-Doppler map of one cube file")
    p.add_argument("--cube", required=True,
                   help="cube file of one CPI; the outputs are rd_ plus its name "
                        "without .rfcube and a leading cube_")
    p.add_argument("--waveform", required=True, help="waveform file for pulse compression")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--window", choices=["hann"], default=None)
    p.add_argument("--clip-db", type=float, default=dsp.DEFAULT_CLIP_DB)
    p.add_argument("--peak-offset-db", type=float, default=dsp.DEFAULT_PEAK_OFFSET_DB)
    p.set_defaults(func=cmd_range_doppler)

    p = scenario_verb("cofar-optimize", "SCNR-optimal waveform design", cmd_cofar_optimize)
    p.add_argument("--cpi", type=int, default=0)
    p.add_argument("--pulse", type=int, default=0)
    p.add_argument("--channel", type=int, default=0)
    p.add_argument("--realizations", type=int, default=64,
                   help="clutter draws of the chosen tap row (default 64)")

    p = scenario_verb("mimo-sim", "multi-transmitter simulation", cmd_mimo_sim)
    p.add_argument("--cpi", type=int, default=0)

    p = sub.add_parser("inspect", help="describe a data file or dataset")
    p.add_argument("path")
    p.set_defaults(func=cmd_inspect)

    return ap


def exit_status(run: Callable[[], int]) -> int:
    """run()'s exit status; a bad input gives one `error:` line on
    stderr and status 2 instead of a traceback.  The verbs and the
    study scripts all exit through it."""
    try:
        return run()
    except (ConfigurationError, ConditioningError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_status(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
