#!/usr/bin/env python3
"""rfclutter benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
``src/``.  A run sets the workload up several times (``setup_s`` is the
median; the repetitions also warm the scene code), then runs operations
one at a time until ``--seconds`` have passed, checking each one's
output.  Timings are medians over the operations, so one slow first
operation does not set them.  The timings of the JSON result are put on
the scale of a host at a steady speed (see hostspeed.py): ``setup_s``,
``wall_ref_s`` and ``work_per_ref_s``.  The report lines also give the
raw wall times.
With ``--trace 1`` every other operation is traced (see tracing.py) and
the per-layer metrics replace the end-to-end ones; the untraced
operations in between give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it name every metric with its unit, the output digest and the
machine and provenance facts.  The spans of a traced run are written
to ``.bench_out/<workload>.spans.jsonl.gz``.  ``--workload all`` runs
each workload in a fresh interpreter and prints their reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set-up repeats at least this many times and for at least this long
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
NAMES = ["desk-dataset", "quarter-cpi", "waveform-design", "waveform-replay"]
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_sha256() -> str:
    """Hash of every source file of the package, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "rfclutter").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, dims: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "scenario": dims,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """Set up and measure one workload; returns the raw result."""
    from hostspeed import HostClock, Timing
    from tracing import Tracer
    from workloads import WORKLOADS, CheckFailed

    wl = WORKLOADS[name](seed, workdir)
    clock = HostClock()
    tracer = Tracer() if trace else None

    def traced_call(root: str, fn):
        # no host-speed probes, so they do not land in the spans
        t0 = time.perf_counter()
        with tracer.root(root):
            result = fn()
        wall = time.perf_counter() - t0
        return result, Timing(wall, float("nan"), 0)

    setups: list[Timing] = []
    while len(setups) < SETUP_REPEATS or sum(t.wall_s for t in setups) < SETUP_SECONDS:
        if tracer is None:
            _, timing = clock.time(wl.setup)
        else:
            _, timing = traced_call("setup", wl.setup)
        setups.append(timing)

    attempted = failed = 0
    digests: set[str] = set()
    timings: dict[bool, list[Timing]] = {False: [], True: []}

    def attempt(i: int, traced: bool) -> Timing | None:
        nonlocal attempted, failed
        attempted += 1
        try:
            if traced:
                result, timing = traced_call("op", lambda: wl.operation(i))
            else:
                result, timing = clock.time(lambda: wl.operation(i))
            wl.check(result)
            digests.add(wl.digest(result))
            if len(digests) > 1:
                raise CheckFailed(f"operation {i} output digest differs from earlier ones")
        except Exception:       # a failed operation is counted, the run goes on
            failed += 1
            print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        return timing

    start = time.perf_counter()
    # a traced run alternates untraced and traced operations, at least one each
    min_ops = 2 if trace else 1
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        traced = trace and i % 2 == 1
        timing = attempt(i, traced)
        if timing is not None:
            timings[traced].append(timing)
        i += 1

    return {"workload": name, "seed": seed, "trace": trace, "wl": wl,
            "tracer": tracer, "setups": setups,
            "ops": timings[False], "traced_ops": timings[True],
            "attempted": attempted, "failed": failed,
            "digest": next(iter(digests)) if len(digests) == 1 else "none",
            "peak_rss_mb": _peak_rss_mb()}


def _median(timings, field: str) -> float:
    values = [getattr(t, field) for t in timings]
    return median(values) if values else float("nan")


def end_to_end(res: dict) -> dict[str, tuple[float, str]]:
    wall = _median(res["ops"], "norm_s")
    return {
        "setup_s": (_median(res["setups"], "norm_s"), "s"),
        "wall_ref_s": (wall, "s"),
        "work_per_ref_s": (res["wl"].work_per_op() / wall, "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def per_layer(res: dict) -> dict[str, tuple[float, str]]:
    from tracing import layer_metrics
    metrics = layer_metrics(res["tracer"])
    overhead = _median(res["traced_ops"], "wall_s") - _median(res["ops"], "wall_s")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def report(res: dict, metrics: dict[str, tuple[float, str]]) -> list[str]:
    """Human-readable lines: every metric by name and unit, the output
    digest, error rate, the workload's own throughput names and the
    provenance record."""
    wl = res["wl"]
    ops = res["ops"]
    lines = [f"workload {res['workload']} seed {res['seed']} trace {int(res['trace'])}: "
             f"{len(ops)} timed operations"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:40s} {value:.6g} {unit}")
    if not res["trace"] and ops:
        per_s = 1.0 / _median(ops, "norm_s")
        # the workload's own name for work_per_ref_s
        lines.append(f"  {wl.throughput:40s} {wl.work_per_op() * per_s:.6g} 1/s "
                     "(reference host)")
        if wl.throughput == "cpi_per_s":
            patches = wl.scene.num_terrain_patches
            lines.append(f"  {'patch_cpi_per_s':40s} "
                         f"{patches * wl.work_per_op() * per_s:.6g} 1/s "
                         f"(reference host; {patches} terrain patches)")
        lines.append(f"  {'wall_s':40s} {_median(ops, 'wall_s'):.6g} s "
                     "(raw wall time on this host)")
        lines.append(f"  {'setup_wall_s':40s} {_median(res['setups'], 'wall_s'):.6g} s "
                     "(raw wall time on this host)")
        lines.append(f"  {'wall_ref_s.samples':40s} {len(ops)} count "
                     f"({', '.join(f'{t.norm_s:.3f}/{t.wall_s:.3f}' for t in ops)} "
                     "s reference/raw; no higher percentile has 10 samples beyond it)")
    lines.append(f"  {'error_rate':40s} {res['failed'] / res['attempted']:.6g} ratio "
                 f"({res['failed']} failed / {res['attempted']} attempted)")
    lines.append(f"  {'output_sha256':40s} {res['digest']}")
    lines.append("provenance " + json.dumps(provenance(res["seed"], wl.dims()),
                                            sort_keys=True))
    return lines


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak RSS is its own."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rfclutter" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(res) if args.trace else end_to_end(res)
    print("\n".join(report(res, metrics)))
    if args.trace:
        res["tracer"].write(OUT / f"{args.workload}.spans.jsonl.gz")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
