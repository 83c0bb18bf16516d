"""Spans around calls into the rfclutter modules, recorded from outside.

The package itself carries no instrumentation.  A traced operation
replaces a fixed set of module attributes with timing wrappers for its
duration and restores them afterwards, so untraced operations run the
unmodified code.  Each wrapper sits on the name the calling code looks
up: ``pipeline.line_of_sight`` wraps every visibility ray the pipeline
marches, ``rxsim.derive_rng`` every noise stream, and
``rxsim.simulate_cube`` the benchmark's own replay calls.  A call that
looks the function up elsewhere is not counted.

A span is ``[name, start_ns, end_ns, parent, counts]``; spans stay in
memory and are written once when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

from rfclutter import challenge, channel, cofar, dsp, ocean, pipeline, rxsim, scenario


def _dir_bytes(path) -> int:
    """Bytes of every file in a dataset directory (or beside a manifest)."""
    p = Path(path)
    root = p.parent if p.is_file() else p
    return sum(f.stat().st_size for f in root.iterdir() if f.is_file())


# (module, attribute, span name, counter).  A counter maps
# (args, kwargs, result) to named counts stored on the span; counters
# read the result where they can, so a changed call signature still
# counts.  An attribute a module no longer has is skipped and its layer
# reads 0.
WRAPPED = [
    (scenario, "generate_scenario1", "scenario.generate", None),
    (scenario, "generate_scenario2", "scenario.generate", None),
    (pipeline, "build_scene", "pipeline.build_scene",
     lambda a, kw, r: {"patches": 0 if r is None else len(r.patches)}),
    (pipeline, "patch_budget", "pipeline.patch_budget",
     lambda a, kw, r: {"contributing": int(np.count_nonzero(r.gains))}),
    (pipeline, "line_of_sight", "terrain.line_of_sight", None),
    (pipeline, "patch_responses", "channel.patch_responses",
     lambda a, kw, r: {"responses": len(r),
                       "useful": sum(1 for p in r if p.amplitude != 0)}),
    (pipeline, "synthesize_ir", "channel.synthesize_ir",
     lambda a, kw, r: {"bytes": r.taps.size * 16}),
    (pipeline, "pulse_modulation", "ocean.pulse_modulation",
     lambda a, kw, r: {"patches": len(r[0])}),
    (pipeline, "ensemble_second_moment", "channel.ensemble_second_moment", None),
    (pipeline, "simulate_cube", "rxsim.simulate_cube",
     lambda a, kw, r: {"bytes": r.samples.size * 16}),
    (rxsim, "simulate_cube", "rxsim.simulate_cube",
     lambda a, kw, r: {"bytes": r.samples.size * 16}),
    (rxsim, "noiseless_samples", "rxsim.noiseless_samples", None),
    (channel, "derive_rng", "seeding.derive_rng.clutter", None),
    (ocean, "derive_rng", "seeding.derive_rng.ocean", None),
    (rxsim, "derive_rng", "seeding.derive_rng.noise", None),
    (cofar, "optimal_waveform", "cofar.optimal_waveform", None),
    (dsp, "range_doppler_map", "dsp.range_doppler_map", None),
    (challenge, "export_challenge", "challenge.export_challenge",
     lambda a, kw, r: {"bytes": _dir_bytes(r)}),
    (challenge, "read_challenge", "challenge.read_challenge",
     lambda a, kw, r: {"bytes": _dir_bytes(a[0])}),
]


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def root(self, name: str):
        """Record one root span (``setup`` or ``op``) with every layer
        wrapper installed; the originals come back on exit."""
        present = [(mod, attr, getattr(mod, attr), span, counter)
                   for mod, attr, span, counter in WRAPPED if hasattr(mod, attr)]
        rec = [name, 0, 0, -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        for mod, attr, fn, span, counter in present:
            setattr(mod, attr, self._wrap(span, fn, counter))
        rec[1] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            for mod, attr, fn, _, _ in present:
                setattr(mod, attr, fn)
            self._stack.pop()

    def write(self, path) -> None:
        """Write every span as one gzipped JSON line each."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent,
                                    "counts": counts}) + "\n")

    def layer_totals(self) -> list[tuple[str, dict[str, float]]]:
        """Per root span: its name and the totals of every layer below it.

        ``<layer>.s`` sums the outermost spans of a name (a nested span
        of the same name is already inside its parent), ``.calls``
        counts every span, ``.self_s`` is time not covered by child
        spans, and each named count is summed.
        """
        children_ns = [0] * len(self.spans)
        root_of = [0] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children_ns[parent] += end - start
                root_of[i] = root_of[parent]
            else:
                root_of[i] = i
        totals: dict[int, dict[str, float]] = {
            i: {} for i, s in enumerate(self.spans) if s[3] < 0}
        for i, (name, start, end, parent, counts) in enumerate(self.spans):
            t = totals[root_of[i]]
            self_s = (end - start - children_ns[i]) * 1e-9
            if parent < 0:
                t["self_s"] = self_s
                t["wall_s"] = (end - start) * 1e-9
                continue
            t[f"{name}.calls"] = t.get(f"{name}.calls", 0) + 1
            t[f"{name}.self_s"] = t.get(f"{name}.self_s", 0.0) + self_s
            if self.spans[parent][0] != name:
                t[f"{name}.s"] = t.get(f"{name}.s", 0.0) + (end - start) * 1e-9
            for key, value in (counts or {}).items():
                t[f"{name}.{key}"] = t.get(f"{name}.{key}", 0) + value
        return [(self.spans[i][0], t) for i, t in totals.items()]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Per-layer metrics and their units.  Set-up metrics come from the traced
# set-up repetitions, every other one from the traced operations; each is
# the median over those roots.  A metric not in DERIVED is read directly
# from a root's totals, and a layer never called reads 0.
SETUP_METRICS = {
    "scenario.generate.s": "s",
    "pipeline.build_scene.s": "s",
    "pipeline.build_scene.patches": "count",
}
OP_METRICS = {
    "terrain.line_of_sight.calls": "count",
    "terrain.line_of_sight.s": "s",
    "terrain.los_useful_ratio": "ratio",
    "pipeline.patch_budget.s": "s",
    "pipeline.patch_budget.self_s": "s",
    "pipeline.patch_budget.contributing": "count",
    "channel.patch_responses.s": "s",
    "channel.patch_responses.self_s": "s",
    "channel.patch_responses.responses": "count",
    "channel.draw_useful_ratio": "ratio",
    "seeding.derive_rng.clutter.calls": "count",
    "seeding.derive_rng.ocean.calls": "count",
    "seeding.derive_rng.noise.calls": "count",
    "seeding.derive_rng.s": "s",
    "channel.synthesize_ir.s": "s",
    "channel.synthesize_ir.bytes": "B",
    "channel.ensemble_second_moment.s": "s",
    "cofar.optimal_waveform.s": "s",
    "ocean.pulse_modulation.s": "s",
    "ocean.pulse_modulation.patches": "count",
    "rxsim.simulate_cube.s": "s",
    "rxsim.noiseless_samples.s": "s",
    "rxsim.noise.s": "s",
    "rxsim.cube_bytes": "B",
    "dsp.range_doppler_map.s": "s",
    "challenge.export_challenge.s": "s",
    "challenge.export_challenge.bytes": "B",
    "challenge.read_challenge.s": "s",
    "challenge.read_challenge.bytes": "B",
    "op.self_s": "s",
    "trace.spans": "count",
}
DERIVED = {
    "terrain.los_useful_ratio": lambda t: _ratio(
        t.get("pipeline.patch_budget.contributing", 0),
        t.get("terrain.line_of_sight.calls", 0)),
    "channel.draw_useful_ratio": lambda t: _ratio(
        t.get("channel.patch_responses.useful", 0),
        t.get("channel.patch_responses.responses", 0)),
    "seeding.derive_rng.s": lambda t: sum(
        t.get(f"seeding.derive_rng.{stream}.s", 0.0)
        for stream in ("clutter", "ocean", "noise")),
    # noise generation is what simulate_cube does besides convolving
    "rxsim.noise.s": lambda t: (t.get("rxsim.simulate_cube.s", 0.0)
                                - t.get("rxsim.noiseless_samples.s", 0.0)),
    "rxsim.cube_bytes": lambda t: t.get("rxsim.simulate_cube.bytes", 0),
    "op.self_s": lambda t: t["self_s"],
    "trace.spans": lambda t: sum(v for k, v in t.items() if k.endswith(".calls")),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every SETUP_METRICS and OP_METRICS entry as (median, unit)."""
    roots = tracer.layer_totals()
    out = {}
    for phase, metrics in (("setup", SETUP_METRICS), ("op", OP_METRICS)):
        for name, unit in metrics.items():
            value = DERIVED.get(name, lambda t: t.get(name, 0))
            values = [value(t) for root, t in roots if root == phase]
            out[name] = (float(median(values)) if values else 0.0, unit)
    return out
