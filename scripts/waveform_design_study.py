"""Clutter-adapted waveform design headroom for a scenario.

Estimates the channel second moments at one CPI, solves for the
SCNR-optimal unit-energy waveform at several design lengths, and
compares it against an LFM of the same length.  The headroom column is
the eigenvalue ratio bound: what a perfectly adapted waveform buys over
the worst one.

The scenario flags (--scenario, or --preset sized by --scale, and
--seed) are read as `rfclutter` reads them.

Usage:
    python3 scripts/waveform_design_study.py --preset scenario1 --lengths 8 16 32
"""

import argparse
import csv
import dataclasses
from pathlib import Path

import numpy as np

from rfclutter import pipeline
from rfclutter.cli import add_scenario_args, exit_status, load_scenario_args
from rfclutter.cofar import max_gain_db, optimal_waveform, scnr
from rfclutter.waveform import lfm


def design_row(scn, scene, length: int, cpi: int, realizations: int):
    # the design length is the scenario's pulse length in samples
    variant = dataclasses.replace(scn, pulse_duration_s=length / scn.sample_rate)
    moments = pipeline.channel_moments(variant, scene, cpi=cpi,
                                       realizations=realizations)
    s_opt, lam = optimal_waveform(moments)
    # LFM reference at the same length and the scenario's sample rate
    ref = lfm(scn.bandwidth_hz, length / scn.sample_rate, scn.sample_rate)
    samples = ref.samples / np.linalg.norm(ref.samples)
    ref_scnr = scnr(samples, moments)
    return {
        "length": length,
        "optimal_scnr_db": 10.0 * np.log10(lam),
        "lfm_scnr_db": 10.0 * np.log10(ref_scnr),
        "headroom_db": max_gain_db(moments),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_scenario_args(ap)
    ap.add_argument("--cpi", type=int, default=0)
    ap.add_argument("--lengths", type=int, nargs="+", default=[8, 16, 32])
    ap.add_argument("--realizations", type=int, default=64,
                    help="clutter draws behind the ensemble moments")
    ap.add_argument("--out", default="out/waveform_design.csv")
    args = ap.parse_args(argv)

    scn = load_scenario_args(args)
    scene = pipeline.build_scene(scn)

    rows = [design_row(scn, scene, n, args.cpi, args.realizations)
            for n in args.lengths]
    print(f"{'P':>4} {'optimal SCNR':>13} {'LFM SCNR':>9} {'gain':>7} {'headroom':>9}")
    for r in rows:
        gain = r["optimal_scnr_db"] - r["lfm_scnr_db"]
        print(f"{r['length']:>4} {r['optimal_scnr_db']:>11.2f} dB "
              f"{r['lfm_scnr_db']:>6.2f} dB {gain:>4.2f} dB "
              f"{r['headroom_db']:>6.2f} dB")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_status(main))
