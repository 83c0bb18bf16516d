"""Sea-clutter Doppler spread as a function of wind speed.

Runs a small all-water scene at several wind speeds with a fixed
platform track and reports the power-weighted Doppler spread of the
clutter ridge, averaged over seeded trials.  Writes one CSV row per
wind speed.

Usage:
    python3 scripts/wind_doppler_study.py --winds 0 5 10 20 30 --trials 20
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from rfclutter import pipeline
from rfclutter.cli import exit_status
from rfclutter.dsp import doppler_axis, doppler_process
from rfclutter.errors import ConfigurationError
from rfclutter.ocean import wind_doppler_spread
from rfclutter.scenario import Scenario
from rfclutter.scattering import WATER
from rfclutter.terrain import ClassGrid, ElevationGrid


def sea_scenario(wind: float, seed: int) -> Scenario:
    cells = 24
    dem = ElevationGrid(heights=np.zeros((cells, cells)), cell_size=30.0)
    cover = ClassGrid(classes=np.full((cells, cells), WATER, dtype=np.int64),
                      cell_size=30.0)
    return Scenario(
        name="sea-sweep", carrier_hz=10e9, bandwidth_hz=5e6, prf_hz=2000.0,
        num_pulses=64, num_channels=1, num_cpis=1, pulse_duration_s=1e-6,
        noise_power=0.0, swath_m=4000.0,
        tx_position=np.array([360.0, 360.0, 3000.0]),
        tx_velocity=np.array([25.0, 0.0, 0.0]),
        dem=dem, landcover=cover, patch_size_m=60.0,
        wind_speed_mps=wind, seed=seed)


def spread_hz(wind: float, seed: int) -> float:
    scn = sea_scenario(wind, seed)
    scene = pipeline.build_scene(scn)
    ir = pipeline.synthesize_clutter(scn, scene, 0, scn.timing())
    power = np.abs(doppler_process(ir.dense()[0].astype(np.complex128))) ** 2
    return wind_doppler_spread(power, doppler_axis(scn.num_pulses, scn.prf_hz))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--winds", type=float, nargs="+",
                    default=[0.0, 5.0, 10.0, 20.0, 30.0], help="m/s")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--out", default="out/wind_doppler.csv")
    args = ap.parse_args(argv)
    if args.trials < 1:
        raise ConfigurationError(f"--trials must be at least 1, got {args.trials}")

    rows = []
    print(f"{'wind m/s':>9} {'mean Hz':>9} {'std Hz':>8}   ({args.trials} trials)")
    for wind in args.winds:
        spreads = [spread_hz(wind, args.seed + t) for t in range(args.trials)]
        mean, std = float(np.mean(spreads)), float(np.std(spreads))
        rows.append((wind, mean, std))
        print(f"{wind:9.1f} {mean:9.2f} {std:8.2f}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["wind_mps", "mean_spread_hz", "std_spread_hz"])
        w.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_status(main))
