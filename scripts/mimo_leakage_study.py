"""Cross-channel leakage for candidate multi-transmitter waveform sets.

Simulates a two-transmitter, one-receiver link over a shared channel
and prints the matched-filter leakage matrix for three waveform
families: time-staggered pulses, an up/down LFM pair, and independent
phase codes.  Leakage is the off-diagonal matched peak relative to the
matched channel, in dB (0 dB means inseparable).

Usage:
    python3 scripts/mimo_leakage_study.py --taps 1 --pulses 16
"""

import argparse
import math

import numpy as np

from rfclutter.cli import exit_status
from rfclutter.channel import ChannelImpulseResponse
from rfclutter.dsp import cross_channel_leakage
from rfclutter.errors import ConfigurationError
from rfclutter.rxsim import assemble_cube
from rfclutter.waveform import Waveform, lfm, phase_code

FS = 10e6   # Hz


def staggered_pair(frame: int) -> tuple[Waveform, Waveform]:
    half = frame // 2
    a = np.zeros(frame, dtype=np.complex128)
    b = np.zeros(frame, dtype=np.complex128)
    a[:half] = 1.0 / math.sqrt(half)
    b[half:] = 1.0 / math.sqrt(frame - half)
    return Waveform(samples=a, sample_rate=FS), Waveform(samples=b, sample_rate=FS)


def families(frame: int, seed: int):
    up = lfm(4e6, frame / FS, FS)
    down = lfm(4e6, frame / FS, FS, direction="down")
    yield "time-staggered", staggered_pair(frame)
    yield "up/down LFM", (up, down)
    yield "phase codes", (phase_code(frame, FS, seed=seed),
                          phase_code(frame, FS, seed=seed + 1))


def leakage_matrix(pair, ir) -> np.ndarray:
    cubes = [assemble_cube([([ir], w)], noise_power=0.0, seed=1) for w in pair]
    return cross_channel_leakage(cubes, list(pair))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--taps", type=int, default=1,
                    help="channel delay spread in samples")
    ap.add_argument("--pulses", type=int, default=16)
    ap.add_argument("--frame", type=int, default=64, help="waveform samples")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    for flag, value, least in (("--taps", args.taps, 1), ("--pulses", args.pulses, 1),
                               ("--frame", args.frame, 2), ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigurationError(f"{flag} must be at least {least}, got {value}")

    rng = np.random.default_rng(args.seed)
    taps = (rng.standard_normal((1, args.pulses, args.taps))
            + 1j * rng.standard_normal((1, args.pulses, args.taps)))
    ir = ChannelImpulseResponse.from_dense(taps, sample_rate=FS, prf=2000.0)

    print(f"channel: {args.taps} taps, {args.pulses} pulses, "
          f"{args.frame}-sample waveforms")
    print(f"{'family':<16} {'leak 0<-1':>10} {'leak 1<-0':>10}")
    for name, pair in families(args.frame, args.seed):
        m = leakage_matrix(pair, ir)
        print(f"{name:<16} {m[0, 1]:>7.1f} dB {m[1, 0]:>7.1f} dB")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_status(main))
