"""Terrain coverage study for a stored or preset scenario.

Builds the scene, reports the patch budget (lit vs unlit, split by
landcover class, with the stationary discretes on their own line), and
writes the north-up clutter gain map as CSV plus an 8-bit PGM
quicklook.  A patch is lit when its two-way gain is non-zero, wherever
its bistatic delay falls, so the table counts the patches that the map
shows with gain.

The scenario flags (--scenario, or --preset sized by --scale, and
--seed) are read as `rfclutter` reads them.

Usage:
    python3 scripts/coverage_study.py --preset scenario1 --out out/coverage
    python3 scripts/coverage_study.py --scenario my_scene.txt --cpi 2
"""

import argparse
import collections
from pathlib import Path

import numpy as np

from rfclutter import pipeline
from rfclutter.cli import add_scenario_args, exit_status, load_scenario_args
from rfclutter.dsp import write_grid_csv, write_pgm
from rfclutter.scattering import BUILDING, FOREST, GRASS, URBAN, WATER

CLASS_NAMES = {WATER: "water", GRASS: "grass", FOREST: "forest",
               URBAN: "urban", BUILDING: "building"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_scenario_args(ap)
    ap.add_argument("--cpi", type=int, default=0)
    ap.add_argument("--out", default="out/coverage")
    args = ap.parse_args(argv)

    scn = load_scenario_args(args)
    scene = pipeline.build_scene(scn)
    if scene is None:
        ap.error("scenario has no terrain; nothing to map")
    tx, rx = pipeline.platform_states(scn, args.cpi)
    # no receive window, as in the gain map
    budget = pipeline.patch_budget(scn, scene, tx, rx, pipeline.receive_array(scn))

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
    write_grid_csv(out / "gain_map.csv", gmap.gains_db, "db")
    write_pgm(out / "gain_map.pgm", gmap.relative_db(), clip_db=80.0)
    gained = gmap.gains_db[gmap.gains_db > pipeline.GAIN_MAP_FLOOR_DB]
    if gained.size:
        summary = f"dynamic range {float(gmap.gains_db.max() - gained.min()):.1f} dB"
    else:
        summary = "no patch has gain"
    print(f"gain map {gmap.gains_db.shape}, {summary} -> {out}/gain_map.csv, gain_map.pgm")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_status(main))
