"""Receiver simulation: pulse convolution, superposition, noise, cube files."""

import dataclasses
import multiprocessing
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from rfclutter import rxsim, workers
from rfclutter.channel import ChannelImpulseResponse
from rfclutter.errors import ConfigurationError
from rfclutter.rxsim import DataCube, assemble_cube, read_cube, simulate_cube, write_cube
from rfclutter.seeding import STREAM_NOISE, derive_rng
from rfclutter.waveform import Waveform, lfm

from oracles import (convolve_lines, convolve_pulse, noise_samples, oracle_cube, oracle_lines,
                     support_rule_samples)

FS = 5e6


def noiseless_samples(ir: ChannelImpulseResponse, waveforms) -> np.ndarray:
    """Whole-cube oracle: every (channel, pulse) tap line convolved with
    its pulse waveform in one batched FFT, (N, M, L + P - 1) complex128.
    `waveforms` is one Waveform or one per pulse."""
    wfs = [waveforms] if isinstance(waveforms, Waveform) else list(waveforms)
    if len(wfs) == 1:
        wfs = wfs * ir.num_pulses
    n_out = ir.num_taps + wfs[0].num_samples - 1
    nfft = next_fast_len(n_out)
    taps_f = np.fft.fft(ir.dense().astype(np.complex128), nfft, axis=2)
    wf_f = np.fft.fft(np.stack([w.samples for w in wfs]), nfft, axis=1)
    out = np.fft.ifft(taps_f * wf_f[None, :, :], axis=2)
    return np.ascontiguousarray(out[:, :, :n_out])


def random_ir(rng, n=2, m=3, l=16):
    taps = rng.normal(size=(n, m, l)) + 1j * rng.normal(size=(n, m, l))
    return ChannelImpulseResponse(taps=taps, sample_rate=FS, prf=2000.0)


def random_waveform(rng, p=8):
    s = rng.normal(size=p) + 1j * rng.normal(size=p)
    return Waveform(samples=s, sample_rate=FS)


def direct_convolve(taps, wf):
    """O(LP) reference convolution, written independently."""
    l, p = len(taps), len(wf)
    out = np.zeros(l + p - 1, dtype=complex)
    for i in range(l):
        for j in range(p):
            out[i + j] += taps[i] * wf[j]
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 128), st.integers(1, 64), st.integers(0, 2 ** 31))
def test_convolution_matches_direct_oracle(l, p, seed):
    """FFT pulse convolution == direct O(LP) sum, 1e-12 relative."""
    rng = np.random.default_rng(seed)
    taps = rng.normal(size=l) + 1j * rng.normal(size=l)
    wf = rng.normal(size=p) + 1j * rng.normal(size=p)
    got = convolve_pulse(taps, wf)
    want = direct_convolve(taps, wf)
    scale = np.abs(want).max() or 1.0
    assert got.shape == (l + p - 1,)
    np.testing.assert_allclose(got, want, atol=1e-12 * scale)


def test_noiseless_samples_per_pulse_lines():
    rng = np.random.default_rng(0)
    ir = random_ir(rng)
    wf = random_waveform(rng)
    out = noiseless_samples(ir, wf)
    assert out.shape == (2, 3, 16 + 8 - 1)
    for n in range(2):
        for m in range(3):
            want = direct_convolve(ir.dense()[n, m].astype(complex), wf.samples)
            np.testing.assert_allclose(out[n, m], want, atol=1e-12 * np.abs(want).max())


def test_noiseless_samples_distinct_pulse_waveforms():
    """Pulse-to-pulse agility: each pulse convolves its own waveform."""
    rng = np.random.default_rng(1)
    ir = random_ir(rng, m=3)
    wfs = [random_waveform(rng) for _ in range(3)]
    out = noiseless_samples(ir, wfs)
    for m in range(3):
        want = direct_convolve(ir.dense()[0, m].astype(complex), wfs[m].samples)
        np.testing.assert_allclose(out[0, m], want, atol=1e-12 * np.abs(want).max())


def assert_superposition_is_exact(clutter, target, wf):
    """The combined cube is the parts' complex128 lines, each convolved
    separately, summed and rounded once; each part's cube is its own
    lines rounded."""
    parts = [oracle_lines([(ir, wf)], 0.0, 5) for ir in (clutter, target)]
    only_c = simulate_cube(clutter, None, wf, 0.0, seed=5)
    only_t = simulate_cube(None, target, wf, 0.0, seed=5)
    assert only_c.samples.tobytes() == parts[0].astype(np.complex64).tobytes()
    assert only_t.samples.tobytes() == parts[1].astype(np.complex64).tobytes()
    both = simulate_cube(clutter, target, wf, 0.0, seed=5)
    assert both.samples.tobytes() == (parts[0] + parts[1]).astype(np.complex64).tobytes()


def test_clutter_target_superposition_is_exact():
    """Separate convolutions summed: combined cube == sum of parts."""
    rng = np.random.default_rng(2)
    clutter = random_ir(rng)
    target = random_ir(rng)
    assert_superposition_is_exact(clutter, target, random_waveform(rng))


def test_waveform_linearity_under_shared_seed():
    """cube(s1 + s2) - noise == (cube(s1) - noise) + (cube(s2) - noise),
    before the cube's one rounding: every waveform's cube is one noise
    plus its own signal, rounded once, and the signals add."""
    rng = np.random.default_rng(3)
    ir = random_ir(rng)
    w1 = random_waveform(rng)
    w2 = random_waveform(rng)
    w_sum = Waveform(samples=w1.samples + w2.samples, sample_rate=FS)
    noise_power = 0.5
    noise = noise_samples(0, ir.num_channels, ir.num_pulses, ir.num_taps + w1.num_samples - 1,
                          noise_power, 9)
    signals = []
    for wf in (w1, w2, w_sum):
        signals.append(support_rule_samples(ir, wf))
        cube = simulate_cube(ir, None, wf, noise_power, seed=9)
        assert cube.samples.tobytes() == (noise + signals[-1]).astype(np.complex64).tobytes()
    rhs = signals[0] + signals[1]
    np.testing.assert_allclose(signals[2], rhs, atol=1e-10 * np.abs(rhs).max())


def test_noise_variance_and_independence():
    noise = noise_samples(0, 2, 4, 4096, noise_power=2.0, seed=11)
    assert noise.shape == (1, 2, 4, 4096)
    var = np.mean(np.abs(noise) ** 2)
    assert var == pytest.approx(2.0, rel=0.05)
    # per-line streams: two lines never share samples
    assert not np.allclose(noise[0, 0, 0], noise[0, 0, 1])
    assert not np.allclose(noise[0, 0, 0], noise[0, 1, 0])
    # deterministic
    again = noise_samples(0, 2, 4, 4096, noise_power=2.0, seed=11)
    np.testing.assert_array_equal(noise, again)


def test_zero_noise_power_is_exactly_zero():
    noise = noise_samples(0, 1, 2, 64, noise_power=0.0, seed=1)
    assert np.all(noise == 0)


def test_noise_beyond_complex64_is_a_configuration_error():
    """A noise power whose samples do not fit in complex64 is refused,
    not rounded to inf samples."""
    rng = np.random.default_rng(4)
    with pytest.raises(ConfigurationError, match="complex64"):
        simulate_cube(random_ir(rng), None, random_waveform(rng), noise_power=1e80, seed=1)


def silent_cube_noise(noise_power: float) -> np.ndarray:
    """The 2**20 samples of a cube whose one channel has no taps, so
    every sample is receiver noise."""
    silent = ChannelImpulseResponse.from_dense(np.zeros((4, 64, 4089), dtype=np.complex64),
                                               sample_rate=FS, prf=2000.0)
    wf = Waveform(samples=np.ones(8), sample_rate=FS)
    cube = simulate_cube(silent, None, wf, noise_power, seed=17, cpi_index=1)
    assert cube.samples.size == 2 ** 20
    return cube.samples.reshape(-1)


def test_receiver_noise_is_circular_gaussian_of_the_noise_power():
    """Per-component mean and variance, circularity E[z^2] = 0 and the
    exponential tail P(|z|^2 / sigma^2 > t) = exp(-t), each within 5
    standard deviations of its estimate over the sample count."""
    sigma2 = 0.7
    z = silent_cube_noise(sigma2)
    n = z.size
    for part in (z.real, z.imag):
        assert abs(part.mean()) < 5 * np.sqrt(sigma2 / 2 / n)
        # the sample variance of a normal has standard deviation var sqrt(2 / n)
        assert abs(part.var() / (sigma2 / 2) - 1) < 5 * np.sqrt(2 / n)
    second = np.mean(z * z) / sigma2    # each part has standard deviation 1 / sqrt(n)
    assert abs(second.real) < 5 / np.sqrt(n) and abs(second.imag) < 5 / np.sqrt(n)
    power = np.abs(z) ** 2 / sigma2
    for t in (2.0, 6.0, 10.0):
        p = np.exp(-t)
        assert abs(np.count_nonzero(power > t) - n * p) < 5 * np.sqrt(n * p * (1 - p)), t


def test_receiver_noise_is_scaled_in_double_precision():
    """Noise powers outside float32's range give the unit noise scaled
    by sqrt(noise_power / 2) in complex128 and rounded once: as a
    float32, 1e-60 flushes to zero and 1e60 overflows, so a scale taken
    from them would zero or overflow every sample.  (The cube holds
    complex64, so its noise power must itself be a float32 magnitude.)"""
    for sigma2 in (1e-60, 1e60):
        with np.errstate(over="ignore"):
            assert not 0.0 < np.float32(sigma2) < np.inf
        z = silent_cube_noise(sigma2)
        want = noise_samples(1, 4, 64, 4096, sigma2, seed=17).astype(np.complex64)
        assert z.tobytes() == want.tobytes(), sigma2
        assert np.all(np.isfinite(z)) and np.any(z != 0), sigma2


def test_cube_noise_matches_absolute_cpi_stream():
    """Per-CPI simulation indexes noise by absolute CPI, not batch slot."""
    rng = np.random.default_rng(4)
    ir = random_ir(rng)
    wf = random_waveform(rng)
    c0 = simulate_cube(ir, None, wf, 0.3, seed=7, cpi_index=0)
    c2 = simulate_cube(ir, None, wf, 0.3, seed=7, cpi_index=2)
    assert not np.array_equal(c0.samples, c2.samples)
    again = simulate_cube(ir, None, wf, 0.3, seed=7, cpi_index=2)
    np.testing.assert_array_equal(c2.samples, again.samples)


def assert_cube_bytes_match_the_oracle(parts, per_pulse, noise_power, n):
    rng = np.random.default_rng(10)
    clutter = random_ir(rng, n=n, m=4, l=20)
    target = random_ir(rng, n=n, m=4, l=20)
    wfs = [random_waveform(rng) for _ in range(4)] if per_pulse else random_waveform(rng)
    irs = {"clutter": (clutter, None), "target": (None, target),
           "both": (clutter, target)}[parts]
    cube = simulate_cube(*irs, wfs, noise_power, seed=13, cpi_index=2)
    want = oracle_cube([(ir, wfs) for ir in irs if ir is not None], noise_power, 13,
                       cpi_index=2)
    assert cube.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise_power", [0.0, 0.7])
@pytest.mark.parametrize("per_pulse", [False, True])
@pytest.mark.parametrize("parts", ["clutter", "target", "both"])
def test_cube_bytes_match_the_whole_cube_oracle(parts, per_pulse, noise_power):
    """Channel-by-channel assembly gives the whole-cube oracle's bytes."""
    assert_cube_bytes_match_the_oracle(parts, per_pulse, noise_power, n=3)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("noise_power", [0.0, 0.7])
@pytest.mark.parametrize("per_pulse", [False, True])
@pytest.mark.parametrize("parts", ["clutter", "target", "both"])
def test_cube_bytes_do_not_depend_on_the_worker_count(set_worker_count, parts, per_pulse,
                                                      noise_power, workers):
    """Five channels split 1, 2, 3 (a remainder block) and 8 (more
    workers than channels) ways give the whole-cube oracle's bytes."""
    set_worker_count(workers)
    assert_cube_bytes_match_the_oracle(parts, per_pulse, noise_power, n=5)


def assert_mimo_cube_bytes_match_the_oracle(noise_power, n):
    rng = np.random.default_rng(11)
    # the middle transmitter carries two channels, as clutter and target
    tx_channels = [[random_ir(rng, n=n)], [random_ir(rng, n=n), random_ir(rng, n=n)],
                   [random_ir(rng, n=n)]]
    wfs = [random_waveform(rng) for _ in range(3)]
    cube = assemble_cube(list(zip(tx_channels, wfs)), noise_power, seed=21, cpi_index=2)
    want = oracle_cube([(ir, wf) for channels, wf in zip(tx_channels, wfs) for ir in channels],
                       noise_power, 21, cpi_index=2)
    assert cube.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise_power", [0.0, 0.7])
def test_mimo_cube_bytes_match_the_whole_cube_oracle(noise_power):
    """The receiver sums its transmitters in tx order and draws one
    noise stream per receive channel, as the whole-cube oracle does."""
    assert_mimo_cube_bytes_match_the_oracle(noise_power, n=2)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("noise_power", [0.0, 0.7])
def test_mimo_cube_bytes_do_not_depend_on_the_worker_count(set_worker_count, noise_power,
                                                           workers):
    set_worker_count(workers)
    assert_mimo_cube_bytes_match_the_oracle(noise_power, n=5)


def test_concurrent_cubes_and_blocks_keep_their_bytes(monkeypatch):
    """Stress: three caller threads share an eight-thread pool that runs
    eight channel blocks per cube, with a short switch interval; every
    cube keeps the whole-cube oracle's bytes, so no block writes into
    another's scratch or channels."""
    rng = np.random.default_rng(18)
    clutter = random_ir(rng, n=8, m=32, l=500)
    target = random_ir(rng, n=8, m=32, l=500)
    wf = random_waveform(rng, p=16)
    want = oracle_cube([(clutter, wf), (target, wf)], 0.7, 9).tobytes()
    pool = ThreadPoolExecutor(8)
    monkeypatch.setattr(workers, "_pool", pool)
    monkeypatch.setattr(workers, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(3) as callers:
            cubes = [callers.submit(simulate_cube, clutter, target, wf, 0.7, seed=9)
                     for _ in range(6)]
            got = [f.result(timeout=120).samples.tobytes() for f in cubes]
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()
    assert all(g == want for g in got)


def simulate_in_child(conn, ir, wf):
    conn.send(simulate_cube(ir, None, wf, 0.7, seed=3).samples.tobytes())
    conn.close()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork start method")
def test_forked_child_assembles_cubes_on_its_own_pool(set_worker_count):
    """A child forked after the parent used the pool has none of its
    threads; it must build its own pool rather than wait on the
    parent's forever."""
    set_worker_count(2)
    rng = np.random.default_rng(17)
    ir = random_ir(rng, n=4, m=4, l=20)
    wf = random_waveform(rng)
    parent = simulate_cube(ir, None, wf, 0.7, seed=3).samples.tobytes()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=simulate_in_child, args=(send, ir, wf))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child did not finish its cube"
        assert recv.recv() == parent
        child.join(60)
        assert not child.is_alive()
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(10)


def count_noise_streams(monkeypatch):
    """Record the key tuple of every noise stream rxsim derives."""
    keys = []

    def counting(*k):
        keys.append(k)
        return derive_rng(*k)

    monkeypatch.setattr(rxsim, "derive_rng", counting)
    return keys


@pytest.mark.parametrize("per_pulse", [False, True])
def test_cube_derives_one_noise_stream_per_channel(monkeypatch, per_pulse):
    rng = np.random.default_rng(15)
    clutter = random_ir(rng, n=3, m=5)
    target = random_ir(rng, n=3, m=5)
    wfs = [random_waveform(rng) for _ in range(5)] if per_pulse else random_waveform(rng)
    keys = count_noise_streams(monkeypatch)
    simulate_cube(clutter, target, wfs, 0.4, seed=6, cpi_index=3)
    assert keys == [(6, STREAM_NOISE, 0, 3, n) for n in range(3)]


def test_mimo_cube_derives_one_noise_stream_per_receiver_channel(monkeypatch):
    """Three transmitters into two receive channels derive two noise
    streams, not one per transmitter."""
    rng = np.random.default_rng(16)
    tx_channels = [[random_ir(rng, n=2)] for _ in range(3)]
    wfs = [random_waveform(rng) for _ in range(3)]
    keys = count_noise_streams(monkeypatch)
    assemble_cube(list(zip(tx_channels, wfs)), 0.4, seed=8, cpi_index=1)
    assert keys == [(8, STREAM_NOISE, 0, 1, n) for n in range(2)]


# --- the unit noise kept for a replayed CPI ------------------------------------

def kept_noise_case(rng, r_extra=0):
    """Three receive channels of clutter and a waveform of 8 + r_extra
    samples: a cube key (seed 4, CPI 2, 3, 5, 23 + r_extra)."""
    return random_ir(rng, n=3, m=5), random_waveform(rng, p=8 + r_extra)


def assert_request(monkeypatch, ir, wf, noise_power, streams, cpi_index=2):
    """One cube request gives the oracle's bytes and derives `streams`
    noise generators."""
    keys = count_noise_streams(monkeypatch)
    cube = simulate_cube(ir, None, wf, noise_power, seed=4, cpi_index=cpi_index)
    assert cube.samples.tobytes() == oracle_cube([(ir, wf)], noise_power, 4,
                                                 cpi_index=cpi_index).tobytes()
    assert len(keys) == streams


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_first_request_repeat_and_kept_noise_give_the_same_bytes(set_worker_count,
                                                                 monkeypatch, workers):
    """A key's first request draws in scratch, its repeat draws into the
    kept array, and the next request builds no generator; all three give
    the oracle's bytes, and the kept array is the read-only unit noise."""
    set_worker_count(workers)
    ir, wf = kept_noise_case(np.random.default_rng(30))
    assert_request(monkeypatch, ir, wf, 0.7, streams=3)
    assert rxsim._noise == ((4, 2, 3, 5, 23), None)
    assert_request(monkeypatch, ir, wf, 0.7, streams=3)
    kept = rxsim._noise[1]
    assert kept.dtype == np.complex64 and not kept.flags.writeable
    # noise power 2 scales the unit noise by 1
    assert kept.tobytes() == noise_samples(2, 3, 5, 23, 2.0, 4)[0].astype(np.complex64).tobytes()
    assert_request(monkeypatch, ir, wf, 0.7, streams=0)
    assert rxsim._noise[1] is kept


def test_interleaved_keys_keep_nothing(monkeypatch):
    """Keys A, B, A: no key repeats the one before it, so every request
    draws and nothing is kept."""
    ir, wf = kept_noise_case(np.random.default_rng(31))
    for cpi in (2, 3, 2):
        assert_request(monkeypatch, ir, wf, 0.7, streams=3, cpi_index=cpi)
        assert rxsim._noise == ((4, cpi, 3, 5, 23), None)


def test_kept_noise_serves_any_noise_power_and_another_length_drops_it(monkeypatch):
    """The kept unit noise serves the key at another noise power; a
    request with another range length R is another key, draws afresh
    and drops the kept array."""
    rng = np.random.default_rng(32)
    ir, wf = kept_noise_case(rng)
    longer = random_waveform(rng, p=11)
    assert_request(monkeypatch, ir, wf, 0.7, streams=3)
    assert_request(monkeypatch, ir, wf, 0.7, streams=3)
    assert_request(monkeypatch, ir, wf, 3e-5, streams=0)
    assert_request(monkeypatch, ir, longer, 0.7, streams=3)
    assert rxsim._noise == ((4, 2, 3, 5, 26), None)
    assert_request(monkeypatch, ir, wf, 0.7, streams=3)


def test_zero_noise_power_leaves_the_kept_noise_alone(monkeypatch):
    """A noiseless request neither reads nor changes the state, even
    between two requests of one key."""
    ir, wf = kept_noise_case(np.random.default_rng(33))
    assert_request(monkeypatch, ir, wf, 0.7, streams=3)
    state = rxsim._noise
    assert_request(monkeypatch, ir, wf, 0.0, streams=0)
    assert rxsim._noise is state
    assert_request(monkeypatch, ir, wf, 0.7, streams=3)
    state = rxsim._noise
    assert state[1] is not None
    assert_request(monkeypatch, ir, wf, 0.0, streams=0)
    assert rxsim._noise is state


def test_failed_fill_keeps_nothing(monkeypatch):
    """The kept array is published only once every block has finished."""
    ir, wf = kept_noise_case(np.random.default_rng(34))
    simulate_cube(ir, None, wf, 0.7, seed=4, cpi_index=2)
    run_blocks = rxsim.run_blocks

    def failing(task, count):
        run_blocks(task, count)
        raise RuntimeError("a block failed")

    monkeypatch.setattr(rxsim, "run_blocks", failing)
    with pytest.raises(RuntimeError):
        simulate_cube(ir, None, wf, 0.7, seed=4, cpi_index=2)
    assert rxsim._noise == ((4, 2, 3, 5, 23), None)


def test_threads_requesting_one_key_at_once_get_its_bytes(set_worker_count):
    """Stress: four callers request one key at once, round after round,
    with a short switch interval, through the first request, the fill
    and the kept noise; every cube has the oracle's bytes, and the key's
    noise ends up kept."""
    set_worker_count(2)
    ir, wf = kept_noise_case(np.random.default_rng(35))
    want = oracle_cube([(ir, wf)], 0.7, 4, cpi_index=2).tobytes()
    start = threading.Barrier(4)

    def request(_):
        start.wait(timeout=60)
        return simulate_cube(ir, None, wf, 0.7, seed=4, cpi_index=2).samples.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            for _ in range(4):
                assert list(callers.map(request, range(4), timeout=120)) == [want] * 4
    finally:
        sys.setswitchinterval(interval)
    assert rxsim._noise[0] == (4, 2, 3, 5, 23) and rxsim._noise[1] is not None


# --- the window transforms kept for a replayed channel ------------------------

def window_ir(rng, n=3, m=4):
    """A channel over taps 5..34 of 40: with an 8-sample waveform it
    takes the window FFT, of length next_fast_len(30 + 8 - 1) = 40."""
    support = np.arange(5, 35)
    taps = rng.normal(size=(n, m, support.size)) + 1j * rng.normal(size=(n, m, support.size))
    return ChannelImpulseResponse(taps=taps, sample_rate=FS, prf=2000.0, support=support,
                                  num_taps=40)


def count_forward_ffts(monkeypatch):
    """Record the input shape of each forward FFT: one per cube for the
    waveform spectrum, and one per receive channel the cube transforms."""
    calls = []
    fft = np.fft.fft

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counting)
    return calls


def window_transforms(ir, size):
    """The transforms a channel's windows have: its tap lines placed from
    the first support tap, zero-padded to `size` and transformed."""
    lines = np.zeros(ir.taps.shape[:2] + (size,), dtype=np.complex128)
    lines[:, :, ir.support - ir.support[0]] = ir.taps
    return np.fft.fft(lines, axis=2)


def assert_transformed(calls, ir, wf, noise_power, ffts, target=None):
    """One request for `ir` (and `target`) gives the whole-cube oracle's
    bytes and runs `ffts` forward FFTs."""
    calls.clear()
    cube = simulate_cube(ir, target, wf, noise_power, seed=4, cpi_index=2)
    assert len(calls) == ffts
    want = oracle_cube([(c, wf) for c in (ir, target) if c is not None], noise_power, 4,
                       cpi_index=2)
    assert cube.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_cold_and_warm_requests_give_the_oracles_bytes(set_worker_count, monkeypatch,
                                                       workers):
    """A channel's first request transforms its windows, one FFT per
    receive channel, and records its key; its repeat transforms them
    into the kept array, read-only; later requests with other waveforms
    transform only the waveform.  All give the whole-cube oracle's
    bytes, with and without noise and beside a direct-route target."""
    set_worker_count(workers)
    rng = np.random.default_rng(40)
    clutter = window_ir(rng)
    target = sparse_ir(rng, [3, 9], n=3)
    calls = count_forward_ffts(monkeypatch)
    assert_transformed(calls, clutter, random_waveform(rng), 0.7, 4, target=target)
    key, kept = rxsim._transforms
    assert key == (weakref.ref(clutter), 40) and kept is None
    assert_transformed(calls, clutter, random_waveform(rng), 0.7, 4, target=target)
    key, kept = rxsim._transforms
    assert key == (weakref.ref(clutter), 40)
    assert kept.shape == (3, 4, 40) and not kept.flags.writeable
    assert kept.tobytes() == window_transforms(clutter, 40).tobytes()
    for noise_power in (0.7, 0.0, 0.7):
        assert_transformed(calls, clutter, random_waveform(rng), noise_power, 1,
                           target=target)
    assert rxsim._transforms[1] is kept


def test_another_channel_taps_or_length_is_never_served_stale_transforms(monkeypatch):
    """The kept transforms serve their channel at their transform length
    only: another channel of the same shape, a channel's copy with other
    taps or support (its fields cannot be reassigned) and a waveform
    that needs another transform length are transformed afresh and
    record their own key.  A waveform of another length with the same
    transform length is the same key, and a request with no FFT-routed
    channel leaves the slot alone."""
    rng = np.random.default_rng(41)
    a, b = window_ir(rng), window_ir(rng)
    wf = random_waveform(rng)
    calls = count_forward_ffts(monkeypatch)
    assert_transformed(calls, a, wf, 0.0, 4)
    assert_transformed(calls, a, random_waveform(rng, p=11), 0.0, 4)   # 40 taps again: fill
    assert_transformed(calls, a, wf, 0.0, 1)
    assert_transformed(calls, b, wf, 0.0, 4)
    assert_transformed(calls, a, wf, 0.0, 4)
    assert_transformed(calls, a, wf, 0.0, 4)
    assert_transformed(calls, a, random_waveform(rng, p=16), 0.0, 4)   # 45 taps
    assert rxsim._transforms[0] == (weakref.ref(a), 45) and rxsim._transforms[1] is None
    assert_transformed(calls, a, wf, 0.0, 4)
    assert_transformed(calls, a, wf, 0.0, 4)
    taps = np.ascontiguousarray(b.taps[:, ::-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.taps = taps
    with pytest.raises(ValueError, match="read-only"):
        a.taps[0, 0, 0] = 1.0
    a = dataclasses.replace(a, taps=taps)
    assert_transformed(calls, a, wf, 0.0, 4)
    assert_transformed(calls, a, wf, 0.0, 4)
    support = np.concatenate([np.arange(5, 20), np.arange(21, 36)])   # 40 taps again
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.support = support
    a = dataclasses.replace(a, support=support)
    assert_transformed(calls, a, wf, 0.0, 4)
    state = rxsim._transforms
    assert_transformed(calls, sparse_ir(rng, [3, 9], n=3), wf, 0.0, 0)
    assert rxsim._transforms is state
    assert_transformed(calls, a, wf, 0.0, 4)
    assert_transformed(calls, a, wf, 0.0, 1)


def test_the_largest_transform_claims_the_slot(monkeypatch):
    """Beside an FFT-routed target with a smaller window, the clutter's
    transforms are the ones kept, whichever channel comes last, and the
    target's are transformed on every request."""
    rng = np.random.default_rng(45)
    clutter = window_ir(rng)                         # transform length 40
    target = sparse_ir(rng, range(12, 22), n=3)      # 10 taps > 6: length 18
    wf = random_waveform(rng)
    calls = count_forward_ffts(monkeypatch)
    assert_transformed(calls, clutter, wf, 0.7, 8, target=target)
    assert_transformed(calls, clutter, wf, 0.7, 8, target=target)
    assert rxsim._transforms[0] == (weakref.ref(clutter), 40)
    assert rxsim._transforms[1] is not None
    assert_transformed(calls, clutter, random_waveform(rng), 0.7, 5, target=target)
    assert_transformed(calls, target, random_waveform(rng), 0.7, 5, target=clutter)


def test_the_transforms_are_freed_with_their_channel():
    """A channel's first request keeps nothing; from its repeat the
    process keeps its transforms, 16 N M nfft bytes, while the channel
    lives: a new channel's request drops them, and dropping the channel
    frees them."""
    n, m, l, p = 4, 16, 1000, 32
    rng = np.random.default_rng(42)
    wf = random_waveform(rng, p=p)
    kept_bytes = n * m * next_fast_len(l + p - 1) * 16
    first = random_ir(rng, n=n, m=m, l=l)
    tracemalloc.start()
    try:
        simulate_cube(first, None, wf, 0.0, seed=1)
        held, _ = tracemalloc.get_traced_memory()
        assert held <= 0.01 * kept_bytes
        simulate_cube(first, None, wf, 0.0, seed=1)
        held, _ = tracemalloc.get_traced_memory()
        assert kept_bytes <= held <= 1.1 * kept_bytes
        second = random_ir(rng, n=n, m=m, l=l)
        simulate_cube(second, None, wf, 0.0, seed=1)
        held, _ = tracemalloc.get_traced_memory()
        assert held <= 0.01 * kept_bytes + second.taps.nbytes + second.support.nbytes
        simulate_cube(second, None, wf, 0.0, seed=1)
        held, _ = tracemalloc.get_traced_memory()
        assert held <= 1.1 * (kept_bytes + second.taps.nbytes + second.support.nbytes)
        assert rxsim._transforms[0] == (weakref.ref(second), kept_bytes // (16 * n * m))
        del first, second
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rxsim._transforms == (None, None)
    assert held <= 0.01 * kept_bytes


def test_a_failed_fill_keeps_no_transforms(monkeypatch):
    """The transforms are kept only once every block has finished."""
    rng = np.random.default_rng(43)
    a = window_ir(rng)
    wf = random_waveform(rng)
    simulate_cube(a, None, wf, 0.0, seed=1)
    run_blocks = rxsim.run_blocks

    def failing(task, count):
        run_blocks(task, count)
        raise RuntimeError("a block failed")

    monkeypatch.setattr(rxsim, "run_blocks", failing)
    with pytest.raises(RuntimeError):
        simulate_cube(a, None, wf, 0.0, seed=1)
    key, kept = rxsim._transforms
    assert key == (weakref.ref(a), 40) and kept is None


def test_threads_sharing_two_channels_get_their_bytes(set_worker_count):
    """Stress: four callers request two channels of one shape at once,
    alternating between them or all on one, round after round, with a
    short switch interval, so the slot is recorded, filled, read and
    taken over under them; every cube has its own channel's oracle
    bytes."""
    set_worker_count(2)
    rng = np.random.default_rng(44)
    channels = [window_ir(rng, n=4), window_ir(rng, n=4)]
    wf = random_waveform(rng)
    want = [oracle_cube([(ir, wf)], 0.0, 1).tobytes() for ir in channels]
    start = threading.Barrier(4)

    def request(k):
        start.wait(timeout=60)
        return simulate_cube(channels[k], None, wf, 0.0, seed=1).samples.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as callers:
            for ks in ([0, 1, 0, 1], [0, 0, 0, 0], [1, 1, 1, 1]) * 3:
                assert list(callers.map(request, ks, timeout=120)) == [want[k] for k in ks]
    finally:
        sys.setswitchinterval(interval)


# --- the direct route over a sparse channel's tap support -------------------

SPARSE_TAPS = 40      # with an 8-sample waveform: nfft 48, so |S| <= 6 goes direct


def sparse_ir(rng, support, n=3, m=4, l=SPARSE_TAPS, dense_channels=()):
    """A channel non-zero only at the taps `support`; the first of them
    is zero in the even pulses, so the support is a union over pulses.
    Receive channels in `dense_channels` have every tap non-zero, which
    makes every tap part of the support."""
    taps = np.zeros((n, m, l), dtype=np.complex128)
    cols = list(support)
    taps[:, :, cols] = rng.normal(size=(n, m, len(cols))) + 1j * rng.normal(size=(n, m, len(cols)))
    taps[:, ::2, cols[:1]] = 0.0
    for c in dense_channels:
        taps[c] = rng.normal(size=(m, l)) + 1j * rng.normal(size=(m, l))
    return ChannelImpulseResponse.from_dense(taps, sample_rate=FS, prf=2000.0)


def count_ffts(monkeypatch):
    """Record the length of each inverse FFT cube assembly runs, one per
    FFT-route (channel, receive channel) pair."""
    calls = []
    ifft = np.fft.ifft

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0])[-1])
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counting)
    return calls


@pytest.mark.parametrize("extra", [0, 1])
def test_direct_route_is_taken_up_to_one_transform_of_multiplies(monkeypatch, extra):
    """The rule |S| P <= nfft: 6 support taps times 8 samples fit in a
    48-point transform and skip the FFTs; a 7th tap does not."""
    rng = np.random.default_rng(20)
    wf = random_waveform(rng)
    nfft = next_fast_len(SPARSE_TAPS + wf.num_samples - 1)
    limit = nfft // wf.num_samples
    assert (nfft, limit) == (48, 6)
    support = np.linspace(0, SPARSE_TAPS - 1, limit + extra).astype(int)
    target = sparse_ir(rng, support, n=2)
    calls = count_ffts(monkeypatch)
    simulate_cube(None, target, wf, 0.0, seed=1)
    assert len(calls) == 2 * extra


def test_one_dense_receive_channel_sends_the_channel_through_the_ffts(monkeypatch):
    """The support is shared by the receive channels: one channel with
    every tap occupied puts all of them on the FFT route."""
    rng = np.random.default_rng(27)
    wf = random_waveform(rng)
    target = sparse_ir(rng, [3, 9], n=3, dense_channels=[1])
    assert target.support.size == SPARSE_TAPS
    calls = count_ffts(monkeypatch)
    cube = simulate_cube(None, target, wf, 0.0, seed=1)
    assert len(calls) == 3
    assert cube.samples.tobytes() == oracle_cube([(target, wf)], 0.0, 1).tobytes()


@pytest.mark.parametrize("noise_power", [0.0, 0.7])
@pytest.mark.parametrize("per_pulse", [False, True])
@pytest.mark.parametrize("parts", ["target", "both"])
def test_direct_route_bytes_match_the_support_rule_oracle(parts, per_pulse, noise_power):
    """A sparse target, alone and over dense clutter: each channel takes
    the oracle's route and gives its bytes."""
    rng = np.random.default_rng(21)
    clutter = random_ir(rng, n=3, m=4, l=SPARSE_TAPS)
    target = sparse_ir(rng, [3, 5, 9, 30])
    wfs = [random_waveform(rng) for _ in range(4)] if per_pulse else random_waveform(rng)
    irs = (clutter, target) if parts == "both" else (None, target)
    cube = simulate_cube(*irs, wfs, noise_power, seed=13, cpi_index=2)
    want = oracle_cube([(ir, wfs) for ir in irs if ir is not None], noise_power, 13,
                       cpi_index=2)
    assert cube.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("per_pulse", [False, True])
def test_direct_route_matches_direct_convolution(per_pulse):
    """Every line of a direct-route cube is the support rule's direct
    sum rounded once, and that sum is within 1e-12 of the O(LP)
    reference convolution."""
    rng = np.random.default_rng(22)
    target = sparse_ir(rng, [0, 2, 17, SPARSE_TAPS - 1])
    wfs = [random_waveform(rng) for _ in range(4)] if per_pulse else random_waveform(rng)
    cube = simulate_cube(None, target, wfs, 0.0, seed=1)
    lines = support_rule_samples(target, wfs)
    assert cube.samples[0].tobytes() == lines.astype(np.complex64).tobytes()
    for n in range(3):
        for m in range(4):
            wf = wfs[m] if per_pulse else wfs
            want = direct_convolve(target.dense()[n, m].astype(complex), wf.samples)
            np.testing.assert_allclose(lines[n, m], want,
                                       rtol=0.0, atol=1e-12 * np.abs(want).max())


# supports of a 40-tap channel; with an 8-sample waveform, more than 6 taps
# take the window FFT
WINDOW_CASES = {
    "gaps": [5, 6, 9, 14, 15, 16, 22, 27, 30],
    "tap-0-and-tap-L-1": [0, 3, 8, 12, 20, 27, 33, SPARSE_TAPS - 1],
    "single-tap": [17],
    "empty": [],
}


@pytest.mark.parametrize("per_pulse", [False, True])
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_window_route_matches_np_convolve(monkeypatch, case, per_pulse):
    """Each line of the cube is the support rule's lines rounded once,
    which are within 1e-12 of `np.convolve` of the dense taps, and
    exactly zero outside the support's window.  A window-FFT channel is
    transformed at next_fast_len(span + P - 1); one tap, or none (an
    all-shadowed channel), is summed directly."""
    rng = np.random.default_rng(28)
    support = WINDOW_CASES[case]
    k = len(support)
    ir = ChannelImpulseResponse(taps=rng.normal(size=(3, 4, k)) + 1j * rng.normal(size=(3, 4, k)),
                                sample_rate=FS, prf=2000.0, support=support,
                                num_taps=SPARSE_TAPS)
    wfs = [random_waveform(rng) for _ in range(4)] if per_pulse else random_waveform(rng)
    rows = np.stack([w.samples for w in ([wfs] if isinstance(wfs, Waveform) else wfs)])
    calls = count_ffts(monkeypatch)
    got = simulate_cube(ir, None, wfs, 0.0, seed=1).samples[0]
    if k * 8 > 48:
        assert calls == [next_fast_len(support[-1] - support[0] + 8)] * 3
    else:
        assert calls == []
    want = convolve_lines(ir.dense(), rows)
    lines = support_rule_samples(ir, wfs)
    np.testing.assert_allclose(lines, want, rtol=0.0, atol=1e-12 * (np.abs(want).max() or 1.0))
    inside = np.zeros(got.shape[-1], dtype=bool)
    if k:
        inside[support[0]:support[-1] + 8] = True
    assert not got[:, :, ~inside].any()
    assert got.tobytes() == oracle_cube([(ir, wfs)], 0.0, 1)[0].tobytes()


def test_dense_clutter_plus_close_sparse_target_superposes_exactly():
    """The target's taps lie closer together than the waveform, so their
    direct sums overlap; the term is still built apart from the clutter
    and added, so the combined cube is the sum of the parts."""
    rng = np.random.default_rng(23)
    clutter = random_ir(rng, n=3, m=4, l=SPARSE_TAPS)
    target = sparse_ir(rng, [11, 12, 14, 18])
    assert_superposition_is_exact(clutter, target, random_waveform(rng))


def test_shadowed_target_adds_nothing():
    """An all-zero target has an empty support: it takes the direct route
    and leaves the clutter cube's bytes as they are."""
    rng = np.random.default_rng(24)
    clutter = random_ir(rng, n=3, m=4, l=SPARSE_TAPS)
    shadowed = ChannelImpulseResponse.from_dense(np.zeros_like(clutter.taps), sample_rate=FS,
                                                 prf=2000.0)
    assert shadowed.support.size == 0
    wf = random_waveform(rng)
    for noise_power in (0.0, 0.7):
        both = simulate_cube(clutter, shadowed, wf, noise_power, seed=5)
        alone = simulate_cube(clutter, None, wf, noise_power, seed=5)
        assert both.samples.tobytes() == alone.samples.tobytes()
        want = oracle_cube([(clutter, wf), (shadowed, wf)], noise_power, 5)
        assert both.samples.tobytes() == want.tobytes()
    assert not simulate_cube(None, shadowed, wf, 0.0, seed=5).samples.any()


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("per_pulse", [False, True])
def test_direct_route_bytes_do_not_depend_on_the_worker_count(set_worker_count, per_pulse,
                                                              workers):
    set_worker_count(workers)
    rng = np.random.default_rng(25)
    clutter = random_ir(rng, n=5, m=4, l=SPARSE_TAPS)
    target = sparse_ir(rng, [4, 6, 7], n=5)
    wfs = [random_waveform(rng) for _ in range(4)] if per_pulse else random_waveform(rng)
    cube = simulate_cube(clutter, target, wfs, 0.7, seed=13, cpi_index=1)
    want = oracle_cube([(clutter, wfs), (target, wfs)], 0.7, 13, cpi_index=1)
    assert cube.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_mimo_direct_route_bytes_match_the_oracle(set_worker_count, workers):
    """Sparse and dense transmitter channels mixed in one MIMO cube:
    the receiver sums its transmitters in order, each on its own route."""
    set_worker_count(workers)
    rng = np.random.default_rng(26)
    tx_irs = [random_ir(rng, n=5, l=SPARSE_TAPS), sparse_ir(rng, [1, 8, 20], n=5, m=3),
              sparse_ir(rng, [2, 3], n=5, m=3, dense_channels=[4]),
              random_ir(rng, n=5, l=SPARSE_TAPS)]
    wfs = [random_waveform(rng) for _ in range(4)]
    cube = assemble_cube([([ir], wf) for ir, wf in zip(tx_irs, wfs)], 0.7, seed=21,
                         cpi_index=2)
    want = oracle_cube(list(zip(tx_irs, wfs)), 0.7, 21, cpi_index=2)
    assert cube.samples.tobytes() == want.tobytes()


def test_zero_noise_still_clears_negative_zeros():
    """Without noise the lines start at +0.0, and adding the channel to
    them turns -0.0 into +0.0: a zero waveform's convolution holds -0.0
    samples."""
    rng = np.random.default_rng(12)
    ir = random_ir(rng)
    silent = Waveform(samples=np.zeros(8), sample_rate=FS)
    assert np.signbit(noiseless_samples(ir, silent).view(np.float64)).any()
    cube = simulate_cube(ir, None, silent, 0.0, seed=1)
    assert cube.samples.tobytes() == oracle_cube([(ir, silent)], 0.0, 1).tobytes()
    assert not np.signbit(cube.samples.view(np.float32)).any()


def test_cube_assembly_peaks_at_one_cube_plus_channel_scratch(set_worker_count):
    """Working memory is the cube and one line buffer and one channel
    FFT buffer per worker, which also holds the channel's noise draw,
    not whole-cube intermediates.  A key's first request and a request
    for the kept noise peak within the bound of a complex128 cube and
    one FFT buffer per worker; the request that fills the kept noise
    adds that (N, M, R) complex64 array and keeps the bound of the
    buffers it needs.  That request also fills the kept window
    transforms of the clutter, one FFT buffer per receive channel,
    which the request after it reads."""
    n, m, l, p = 8, 64, 1000, 32
    rng = np.random.default_rng(13)
    clutter = random_ir(rng, n=n, m=m, l=l)
    target = random_ir(rng, n=n, m=m, l=l)
    wf = random_waveform(rng, p=p)
    n_out = l + p - 1
    samples = n * m * n_out
    channel_bytes = m * next_fast_len(n_out) * 16
    for workers in (1, 2, 4):
        set_worker_count(workers)
        rxsim._noise = (None, None)
        rxsim._transforms = (None, None)
        bounds = {"first": 16 * samples + workers * channel_bytes,
                  "fill": 8 * samples + 8 * samples + 2 * workers * channel_bytes
                          + n * channel_bytes,
                  "hit": 16 * samples + workers * channel_bytes}
        for kind, bound in bounds.items():
            tracemalloc.start()
            try:
                cube = simulate_cube(clutter, target, wf, 0.5, seed=3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert cube.samples.nbytes == 8 * samples
            assert (rxsim._noise[1] is not None) == (kind != "first"), kind
            assert peak <= 1.1 * bound, (workers, kind)


@pytest.mark.parametrize("noise_power", [float("nan"), float("inf"), -1.0])
def test_bad_noise_power_is_rejected_before_any_fft(monkeypatch, noise_power):
    rng = np.random.default_rng(14)
    ir = random_ir(rng)
    wf = random_waveform(rng)

    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran before the inputs were checked")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    with pytest.raises(ConfigurationError, match="noise_power"):
        simulate_cube(ir, None, wf, noise_power, seed=1)
    with pytest.raises(ConfigurationError, match="one length"):
        simulate_cube(ir, None, [wf, wf, random_waveform(rng, p=9)], 0.0, seed=1)


def test_mismatched_channels_rejected():
    rng = np.random.default_rng(6)
    a = random_ir(rng, n=2)
    b = random_ir(rng, n=3)
    with pytest.raises(ConfigurationError):
        simulate_cube(a, b, random_waveform(rng), 0.0, seed=1)
    with pytest.raises(ConfigurationError):
        simulate_cube(None, None, random_waveform(rng), 0.0, seed=1)



@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_cube_rates_and_noise_power_must_be_finite(bad):
    samples = np.zeros((1, 1, 2, 3), dtype=np.complex64)
    good = dict(sample_rate=5e6, prf=1e3, noise_power=0.1)
    for field in good:
        with pytest.raises(ConfigurationError):
            DataCube(samples=samples, **{**good, field: bad})


@pytest.mark.parametrize("shape", [(1, 0, 2, 3), (1, 1, 0, 3), (1, 1, 2, 0)])
def test_a_cube_with_an_empty_axis_is_rejected_as_its_file_is(tmp_path, shape):
    """Construction refuses N, M or R = 0 as `read_cube` refuses a file
    that declares them, so no cube is written that cannot be read."""
    with pytest.raises(ConfigurationError, match="N, M, R >= 1"):
        DataCube(samples=np.zeros(shape, dtype=np.complex64), sample_rate=5e6, prf=1e3,
                 noise_power=0.0)
    path = tmp_path / "empty.rfcube"
    path.write_bytes(rxsim._HEADER.pack(rxsim._MAGIC, *shape, 5e6, 1e3, 0.0, 0.0))
    with pytest.raises(ConfigurationError, match="empty array"):
        read_cube(path)
    one = DataCube(samples=np.ones((1, 1, 1, 1), dtype=np.complex64), sample_rate=5e6,
                   prf=1e3, noise_power=0.0)
    write_cube(path, one)
    assert read_cube(path).samples.tobytes() == one.samples.tobytes()


def test_nan_rate_waveform_never_reaches_the_convolution():
    """A NaN waveform rate used to pass the rate-match check against
    any channel."""
    rng = np.random.default_rng(8)
    with pytest.raises(ConfigurationError):
        simulate_cube(random_ir(rng), None, Waveform(np.ones(4), sample_rate=float("nan")),
                      0.0, seed=1)


def test_cube_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    ir = random_ir(rng)
    wf = random_waveform(rng)
    cube = simulate_cube(ir, None, wf, 0.2, seed=4, carrier_hz=10e9)
    path = tmp_path / "cube.rfcube"
    write_cube(path, cube)
    back = read_cube(path)
    assert back.dims == cube.dims
    assert back.prf == cube.prf
    assert back.carrier_hz == cube.carrier_hz
    assert back.noise_power == cube.noise_power
    # payload stored as complex64
    np.testing.assert_array_equal(back.samples, cube.samples.astype(np.complex64))


def test_cube_reader_rejects_corruption(tmp_path):
    path = tmp_path / "bad.rfcube"
    path.write_bytes(b"XXCUBE99" + b"\x00" * 56)
    with pytest.raises(ConfigurationError):
        read_cube(path)


def test_a_cube_file_of_several_cpis_is_rejected_from_its_header(tmp_path):
    """`write_cube` writes C = 1, and `read_cube` rejects any other C
    before it reads the payload: a file of C CPIs whose payload holds a
    NaN names the CPI count, not the NaN."""
    rng = np.random.default_rng(9)
    path = tmp_path / "cube.rfcube"
    write_cube(path, simulate_cube(random_ir(rng), None, random_waveform(rng), 0.2, seed=4))
    blob = path.read_bytes()
    assert blob[8:12] == (1).to_bytes(4, "little")
    head, payload = blob[:rxsim._HEADER.size], blob[rxsim._HEADER.size:]
    nan = np.full(2, np.nan, dtype="<f4").tobytes()
    for c in (2, 3):
        path.write_bytes(head[:8] + c.to_bytes(4, "little") + head[12:] + nan
                         + payload[len(nan):] + payload * (c - 1))
        with pytest.raises(ConfigurationError, match=f"holds {c} CPIs"):
            read_cube(path)


def test_channels_waveforms_and_cubes_are_fixed_at_construction():
    """No field of a channel, waveform or cube can be reassigned, and
    their arrays are read-only, so a value checked at construction (a
    finite rate, finite samples, a valid support, a non-negative noise
    power) stays checked.  A waveform holds its own copy of the samples
    it was given."""
    rng = np.random.default_rng(10)
    ir = random_ir(rng)
    given = np.ones(4, dtype=np.complex128)
    wf = Waveform(given, sample_rate=FS)
    cube = simulate_cube(ir, None, random_waveform(rng), 0.2, seed=4)
    for value, arrays in ((ir, ("taps", "support")), (wf, ("samples",)),
                          (cube, ("samples",))):
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
        for name in arrays:
            array = getattr(value, name)
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]
    given[0] = np.nan
    assert np.all(wf.samples == 1.0)
