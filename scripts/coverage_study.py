"""Terrain coverage study for a stored or preset scenario.

Builds the scene, reports the patch budget (lit vs terrain-shadowed,
split by landcover class, with the stationary discretes on their own
line), and writes the north-up clutter gain map as
CSV plus an 8-bit PGM quicklook.

Usage:
    python3 scripts/coverage_study.py --preset scenario1 --out out/coverage
    python3 scripts/coverage_study.py --scenario my_scene.txt --cpi 2
"""

import argparse
import collections
from pathlib import Path

import numpy as np

from rfclutter import pipeline
from rfclutter.dsp import write_map_csv, write_pgm
from rfclutter.scattering import BUILDING, FOREST, GRASS, URBAN, WATER
from rfclutter.scenario import (DESK_SCALE, generate_scenario1,
                                generate_scenario2, load_scenario)

PRESETS = {"scenario1": generate_scenario1, "scenario2": generate_scenario2}
CLASS_NAMES = {WATER: "water", GRASS: "grass", FOREST: "forest",
               URBAN: "urban", BUILDING: "building"}


def load(args):
    if args.scenario:
        return load_scenario(args.scenario)
    return PRESETS[args.preset](scale=args.scale, seed=args.seed)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    src = ap.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="scenario text file")
    src.add_argument("--preset", choices=sorted(PRESETS))
    ap.add_argument("--scale", type=float, default=DESK_SCALE)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cpi", type=int, default=0)
    ap.add_argument("--out", default="out/coverage")
    args = ap.parse_args(argv)

    scn = load(args)
    scene = pipeline.build_scene(scn)
    if scene is None:
        ap.error("scenario has no terrain; nothing to map")
    tx, rx = pipeline.platform_states(scn, args.cpi)
    budget = pipeline.patch_budget(scn, scene, tx, rx,
                                   pipeline.receive_array(scn), scn.timing())

    lit = budget.gains > 0.0
    # the class table covers the terrain and roof patches, not the discretes
    facets = len(scene.patches) - scene.num_discretes
    classes = scene.patches.classes[:facets]
    per_class = collections.Counter(classes.tolist())
    lit_per_class = collections.Counter(classes[lit[:facets]].tolist())

    print(f"scenario {scn.name!r}: {facets} patches, "
          f"{int(lit[:facets].sum())} lit at CPI {args.cpi}")
    for cls in sorted(per_class):
        n, k = per_class[cls], lit_per_class[cls]
        name = CLASS_NAMES.get(cls, f"class {cls}")
        print(f"  {name:<10} {k:>6} / {n:<6} lit ({100.0 * k / n:5.1f}%)")
    if scene.num_discretes:
        print(f"  discretes: {int(lit[facets:].sum())} / {scene.num_discretes} lit")

    gmap = pipeline.gain_map(scn, cpi=args.cpi)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_map_csv(out / "gain_map.csv", gmap.gains_db)
    write_pgm(out / "gain_map.pgm", gmap.gains_db - gmap.gains_db.max(),
              clip_db=80.0)
    span = float(gmap.gains_db.max() - gmap.gains_db[gmap.gains_db > -320.0].min())
    print(f"gain map {gmap.gains_db.shape}, dynamic range {span:.1f} dB "
          f"-> {out}/gain_map.csv, gain_map.pgm")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
