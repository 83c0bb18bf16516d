"""Array geometry, steering vectors, pattern gains."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfclutter.antenna import (ArrayGeometry, phase_ramps, spatial_steering_many,
                               uniform_pattern_gains)
from rfclutter.errors import ConfigurationError

from oracles import (pattern_gain, pattern_gains, space_time_steering, spatial_steering,
                     temporal_steering, wrap_normalized_doppler)

WAVELENGTH = 0.03


def ula(n=8, spacing=None):
    d = WAVELENGTH / 2.0 if spacing is None else spacing
    return ArrayGeometry.ula(n, d, WAVELENGTH, axis=(0.0, 1.0, 0.0),
                             boresight=(1.0, 0.0, 0.0))


def direction_at(u):
    """Unit LOS with sine-angle u off boresight, in the array plane."""
    return np.array([math.sqrt(1.0 - u * u), u, 0.0])


# --- phase ramps -----------------------------------------------------------------

@pytest.mark.parametrize("count", [1, 2, 5, 64, 100])
def test_phase_ramps_match_a_long_double_reference(count):
    """Entry k is a product of popcount(k) <= L = ceil(log2 count)
    factors.  Each is a correctly rounded exponential (within eps/2)
    and enters one rounded complex product (about eps/2 more), so an
    entry is within about one eps per factor; the bound allows one eps
    more.  The reference takes theta * k exactly in long double."""
    rng = np.random.default_rng(5)
    theta = np.concatenate([[0.0, np.pi, -np.pi, 1e-12, -1e-12],
                            rng.uniform(-np.pi, np.pi, 500), rng.uniform(-60.0, 60.0, 100)])
    got = phase_ramps(theta, count)
    assert got.shape == (theta.size, count) and got.dtype == np.complex128
    arg = theta.astype(np.longdouble)[:, None] * np.arange(count, dtype=np.longdouble)
    err = np.hypot(got.real.astype(np.longdouble) - np.cos(arg),
                   got.imag.astype(np.longdouble) - np.sin(arg))
    bound = (math.ceil(math.log2(count)) + 1) * np.finfo(np.float64).eps
    assert float(err.max()) <= bound
    assert np.all(got[:, 0] == 1.0)


def column_doubling_phase_ramps(theta, count):
    """`phase_ramps` as it once was, doubling along the columns of a
    (len(theta), count) buffer: the bit-for-bit oracle of the row
    doubling."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    out = np.empty((theta.size, count), dtype=np.complex128)
    out[:, :1] = 1.0
    width = 1
    while width < count:
        step = min(width, count - width)
        np.multiply(out[:, :step], np.exp(1j * (theta * width))[:, None],
                    out=out[:, width:width + step])
        width *= 2
    return out


@pytest.mark.parametrize("count", [1, 2, 3, 31, 32, 33, 64, 100])
@pytest.mark.parametrize("size", [0, 1, 7, 1000])
def test_phase_ramps_equal_the_column_doubling_oracle(count, size):
    rng = np.random.default_rng(count)
    theta = np.concatenate([[0.0, np.pi, -np.pi / 3, 1e-300],
                            rng.uniform(-np.pi, np.pi, 500), rng.normal(0.0, 60.0, 500)])[:size]
    got = phase_ramps(theta, count)
    want = column_doubling_phase_ramps(theta, count)
    assert got.shape == want.shape == (size, count)
    assert got.dtype == np.complex128
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


# --- spatial steering ----------------------------------------------------------

def test_ula_steering_phase_progression():
    """Half-wavelength ULA: entry k carries exp(j 2 pi (d/lambda) k u)."""
    arr = ula(4)
    u = 0.35
    v = spatial_steering(arr, direction_at(u))
    expected = np.exp(1j * 2.0 * np.pi * 0.5 * np.arange(4) * u)
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_steering_is_unit_modulus_and_reference_normalized():
    arr = ula(6)
    v = spatial_steering(arr, direction_at(-0.62))
    np.testing.assert_allclose(np.abs(v), np.ones(6), atol=1e-12)
    assert v[0] == pytest.approx(1.0)


def test_steering_boresight_is_all_ones():
    arr = ula(5)
    v = spatial_steering(arr, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(v, np.ones(5), atol=1e-12)


def test_steering_many_matches_scalar():
    arr = ula(7)
    rng = np.random.default_rng(2)
    us = rng.uniform(-0.9, 0.9, 20)
    dirs = np.array([direction_at(u) for u in us])
    many = spatial_steering_many(arr, dirs)
    for k, u in enumerate(us):
        np.testing.assert_allclose(many[k], spatial_steering(arr, dirs[k]),
                                   atol=1e-15)


def test_steering_many_matches_direct_exponentials():
    """The ramp against one np.exp per (direction, element) entry; the
    direct form's phases up to ~100 rad carry its own rounding."""
    arr = ArrayGeometry.ula(32, WAVELENGTH / 2, WAVELENGTH, axis=(0.6, 0.8, 0.0),
                            boresight=(0.8, -0.6, 0.0))
    rng = np.random.default_rng(9)
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    rel = np.outer(np.arange(32), arr.element_step)       # element m at m * element_step
    direct = np.exp(1j * (2.0 * np.pi / WAVELENGTH) * (dirs @ rel.T))
    np.testing.assert_allclose(spatial_steering_many(arr, dirs), direct, rtol=0, atol=1e-13)


def test_array_geometry_requires_a_uniform_linear_array():
    """The array is a ULA by construction: N elements and one step,
    spacing times the unit axis, which is zero for a single element."""
    arr = ArrayGeometry.ula(5, 0.02, WAVELENGTH, axis=(0.0, 3.0, -4.0))
    np.testing.assert_array_equal(arr.element_step, [0.0, 0.02 * 0.6, 0.02 * -0.8])
    # a zero component is +0.0 whatever the axis's sign
    assert not np.signbit(ArrayGeometry.ula(2, 0.02, WAVELENGTH,
                                            axis=(-0.0, -1.0, 0.0)).element_step[0])
    single = ArrayGeometry.ula(1, 0.02, WAVELENGTH, axis=(0.0, 3.0, -4.0))
    assert single.num_elements == 1 and np.all(single.element_step == 0.0)
    np.testing.assert_array_equal(spatial_steering_many(single, direction_at(0.3)), [[1.0]])


# --- temporal / space-time steering --------------------------------------------

def test_temporal_steering_phase_ramp():
    """The ramp against one direct np.exp per pulse."""
    for m in (1, 3, 8, 16, 64, 129):
        for f in (-0.5, -0.3125, -1e-9, 0.0, 0.0371, 0.15, 0.25, 0.4999):
            direct = np.exp(1j * 2.0 * np.pi * f * np.arange(m))
            np.testing.assert_allclose(temporal_steering(f, m), direct,
                                       rtol=0, atol=1e-13)


def test_wrap_normalized_doppler():
    assert wrap_normalized_doppler(0.3) == pytest.approx(0.3)
    assert wrap_normalized_doppler(0.8) == pytest.approx(-0.2)
    assert wrap_normalized_doppler(-0.5) == pytest.approx(-0.5)
    assert wrap_normalized_doppler(0.5) == pytest.approx(-0.5)
    assert wrap_normalized_doppler(2.25) == pytest.approx(0.25)


def test_space_time_kron_against_nested_loop_oracle():
    arr = ula(3)
    vs = spatial_steering(arr, direction_at(0.5))
    vt = temporal_steering(0.22, 4)
    st_vec = space_time_steering(vs, vt)
    # independent nested loop: temporal-major blocks of spatial entries
    oracle = np.empty(12, dtype=complex)
    k = 0
    for m in range(4):
        for n in range(3):
            oracle[k] = vt[m] * vs[n]
            k += 1
    np.testing.assert_allclose(st_vec, oracle, atol=1e-15)


@settings(max_examples=40)
@given(st.integers(1, 8), st.integers(1, 16), st.floats(-0.5, 0.49),
       st.floats(-0.99, 0.99))
def test_space_time_norm_is_nm(n, m, f, u):
    arr = ula(n)
    v = space_time_steering(spatial_steering(arr, direction_at(u)),
                            temporal_steering(f, m))
    assert np.sum(np.abs(v) ** 2) == pytest.approx(n * m, rel=1e-12)
    assert len(v) == n * m


# --- pattern gains --------------------------------------------------------------

def test_boresight_gain_is_n_squared_times_element():
    """Uniform weights at boresight: coherent sum of N unit elements."""
    n = 8
    arr = ula(n)
    g = pattern_gain(arr, np.ones(n), np.array([1.0, 0.0, 0.0]))
    assert g == pytest.approx(float(n * n), rel=1e-12)


def test_pattern_null_at_u_half_for_n4():
    # N=4, d = lambda/2: pattern nulls at u = 2k/N -> first null at u=0.5
    arr = ula(4)
    g = pattern_gain(arr, np.ones(4), direction_at(0.5))
    assert g < 1e-20


def test_element_cosine_pattern_scales_gain():
    arr = ArrayGeometry.ula(1, WAVELENGTH / 2, WAVELENGTH, axis=(0, 1, 0),
                            boresight=(1, 0, 0), cosine_exponent=2.0)
    d = direction_at(0.6)   # cos angle off boresight = sqrt(1 - 0.36)
    g = pattern_gain(arr, np.ones(1), d)
    assert g == pytest.approx((1.0 - 0.36), rel=1e-12)   # cos^2 = 0.64


def test_behind_array_gain_is_zero():
    arr = ula(4)
    g = pattern_gain(arr, np.ones(4), np.array([-1.0, 0.0, 0.0]))
    assert g == 0.0


@settings(max_examples=30)
@given(st.floats(-0.85, 0.85))
def test_steered_beam_peaks_at_its_own_direction(u0):
    """Main-beam maximality of the array factor: conjugate-steered
    weights peak at u0.  Element taper off (p = 0) since the cosine
    factor deliberately pulls the product pattern toward broadside."""
    arr = ArrayGeometry.ula(8, WAVELENGTH / 2, WAVELENGTH, axis=(0, 1, 0),
                            boresight=(1, 0, 0), cosine_exponent=0.0)
    w = spatial_steering(arr, direction_at(u0))
    peak = pattern_gain(arr, w, direction_at(u0))
    for u in np.linspace(-0.95, 0.95, 77):
        assert pattern_gain(arr, w, direction_at(u)) <= peak * (1.0 + 1e-9)


def test_pattern_gains_vector_matches_scalar():
    arr = ula(5)
    w = np.ones(5)
    us = np.linspace(-0.8, 0.8, 15)
    dirs = np.array([direction_at(u) for u in us])
    vec = pattern_gains(arr, w, dirs)
    scalar = np.array([pattern_gain(arr, w, d) for d in dirs])
    np.testing.assert_allclose(vec, scalar, atol=1e-14)


def assert_closed_form_matches_pattern_gains(arr, dirs):
    n = arr.num_elements
    want = pattern_gains(arr, np.ones(n), dirs)
    got = uniform_pattern_gains(arr, dirs)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * n * n)
    return got


@pytest.mark.parametrize("n", [1, 2, 4, 7, 32])
def test_uniform_pattern_closed_form_matches_pattern_gains(n):
    """sin^2(N psi / 2) / sin^2(psi / 2) against the steering GEMV at
    broadside, at every null, in the back hemisphere, at endfire and
    over random directions, to within 1e-12 N^2."""
    arr = ula(n)
    nulls = [direction_at(2.0 * k / n) for k in range(1, n // 2 + 1) if 2.0 * k / n < 1.0]
    fixed = np.array([[1.0, 0.0, 0.0],       # broadside
                      [-1.0, 0.0, 0.0],      # behind the array
                      [0.0, 1.0, 0.0],       # endfire
                      [0.0, -1.0, 0.0],
                      [0.0, 0.0, 1.0]] + nulls)
    got = assert_closed_form_matches_pattern_gains(arr, fixed)
    assert got[0] == float(n * n)
    assert got[1] == 0.0
    assert np.all(got[5:] <= 1e-12 * n * n)
    rng = np.random.default_rng(n)
    dirs = rng.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    behind = np.array([-math.sqrt(1.0 - u * u) for u in np.linspace(-0.9, 0.9, 7)])
    back = np.stack([behind, np.linspace(-0.9, 0.9, 7), np.zeros(7)], axis=1)
    got = assert_closed_form_matches_pattern_gains(arr, np.concatenate([dirs, back]))
    assert np.all(got[-7:] == 0.0)


def test_uniform_pattern_closed_form_meets_grating_lobes():
    """At spacing 2 lambda the array factor has grating lobes at
    u = +-0.5, where psi is a whole turn: the closed form takes the
    N^2 limit there, as at broadside."""
    n = 6
    arr = ArrayGeometry.ula(n, 2.0 * WAVELENGTH, WAVELENGTH, axis=(0.0, 1.0, 0.0),
                            boresight=(1.0, 0.0, 0.0), cosine_exponent=0.0)
    us = np.concatenate([[-0.5, 0.5], np.linspace(-0.95, 0.95, 101)])
    got = assert_closed_form_matches_pattern_gains(arr, np.array([direction_at(u) for u in us]))
    np.testing.assert_allclose(got[:2], n * n, rtol=1e-12)


def test_array_validation():
    with pytest.raises(ConfigurationError):
        ArrayGeometry.ula(0, 0.015, WAVELENGTH)
    with pytest.raises(ConfigurationError):
        ArrayGeometry.ula(4, 0.015, -1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError):
            ArrayGeometry.ula(4, 0.015, bad)
        with pytest.raises(ConfigurationError):
            ArrayGeometry.ula(4, bad, WAVELENGTH)
        with pytest.raises(ConfigurationError):
            ArrayGeometry.ula(4, 0.015, WAVELENGTH, axis=(bad, 1.0, 0.0))
    for bad_spacing in (0.0, -0.015):
        with pytest.raises(ConfigurationError):
            ArrayGeometry.ula(4, bad_spacing, WAVELENGTH)
    with pytest.raises(ConfigurationError):
        ArrayGeometry.ula(4, 0.015, WAVELENGTH, axis=(0.0, 0.0, 0.0))
    with pytest.raises(ConfigurationError):
        ArrayGeometry.ula(4, 0.015, WAVELENGTH, boresight=(0.0, 0.0, 0.0))
    with pytest.raises(ConfigurationError):
        ArrayGeometry.ula(4, 0.015, WAVELENGTH, cosine_exponent=-1.0)
    arr = ula(4)
    with pytest.raises(ConfigurationError):
        pattern_gain(arr, np.ones(3), direction_at(0.0))  # weight length
