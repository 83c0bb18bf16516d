"""Backscatter table and the bistatic range-equation power scale."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfclutter.errors import ConfigurationError
from rfclutter.scattering import (BUILDING, FOREST, GRASS, URBAN, WATER,
                                  Reflectivity, ScatteringTable, default_table,
                                  patch_power_scales, read_scattering_table)

from oracles import patch_power_scale, sigma0, write_scattering_table


def test_constant_gamma_closed_form():
    table = ScatteringTable(entries={(GRASS, "X"): Reflectivity(gamma_db=-15.0)})
    gamma = 10.0 ** (-15.0 / 10.0)
    psi = 0.3
    assert sigma0(table, GRASS, "X", psi) == pytest.approx(gamma * math.sin(psi), rel=1e-12)
    assert sigma0(table, GRASS, "X", 0.0) == 0.0
    # negative grazing clamps to zero rather than going negative
    assert sigma0(table, GRASS, "X", -0.2) == 0.0


def test_default_table_ordering():
    # relative reflectivity ordering the built-in scenes rely on
    table = default_table()
    psi = 0.2
    vals = {c: sigma0(table, c, "X", psi) for c in (WATER, GRASS, FOREST, URBAN, BUILDING)}
    assert vals[WATER] < vals[GRASS] < vals[FOREST] < vals[URBAN] < vals[BUILDING]


def test_missing_entry_raises():
    table = default_table()
    with pytest.raises(ConfigurationError):
        sigma0(table, GRASS, "L", 0.3)
    with pytest.raises(ConfigurationError):
        sigma0(table, 99, "X", 0.3)


def test_polynomial_entry_overrides_gamma():
    # sigma0_db = -20 + 10*psi, evaluated in dB then converted
    table = ScatteringTable(entries={
        (GRASS, "X"): Reflectivity(gamma_db=0.0, poly_db=(-20.0, 10.0))})
    psi = 0.5
    want = 10.0 ** ((-20.0 + 10.0 * psi) / 10.0)
    assert sigma0(table, GRASS, "X", psi) == pytest.approx(want, rel=1e-12)


@given(st.floats(1e-4, math.pi / 2 - 1e-4), st.floats(1e-4, math.pi / 2 - 1e-4))
def test_sigma0_monotone_in_grazing(psi_a, psi_b):
    table = default_table()
    lo, hi = sorted((psi_a, psi_b))
    assert sigma0(table, FOREST, "X", lo) <= sigma0(table, FOREST, "X", hi)


def test_sigma0_many_matches_scalar():
    table = default_table()
    rng = np.random.default_rng(5)
    classes = rng.choice([WATER, GRASS, FOREST, URBAN], size=60)
    grazing = rng.uniform(0.0, math.pi / 2, size=60)
    vec = table.sigma0_many(classes, "X", grazing)
    scalar = np.array([sigma0(table, int(c), "X", float(g))
                       for c, g in zip(classes, grazing)])
    np.testing.assert_allclose(vec, scalar, rtol=0, atol=0)


# --- range-equation power scale ----------------------------------------------

def test_power_scale_closed_form():
    # direct evaluation of the bistatic range equation
    g = patch_power_scale(sigma0=0.01, area=900.0, tx_gain=16.0, rx_gain=1.0,
                          wavelength=0.03, r_tx=5000.0, r_rx=6000.0)
    want = (16.0 * 1.0 * 0.03 ** 2 * 0.01 * 900.0
            / ((4.0 * math.pi) ** 3 * 5000.0 ** 2 * 6000.0 ** 2))
    assert g == pytest.approx(want, rel=1e-15)


def test_power_scale_monostatic_r4_law():
    kwargs = dict(sigma0=0.05, area=100.0, tx_gain=4.0, rx_gain=1.0, wavelength=0.03)
    near = patch_power_scale(r_tx=1000.0, r_rx=1000.0, **kwargs)
    far = patch_power_scale(r_tx=2000.0, r_rx=2000.0, **kwargs)
    assert near / far == pytest.approx(16.0, rel=1e-12)


@given(st.floats(0.1, 10.0))
def test_power_scale_separable_in_tx_gain(k):
    base = patch_power_scale(sigma0=0.02, area=900.0, tx_gain=2.0, rx_gain=0.7,
                             wavelength=0.03, r_tx=4000.0, r_rx=4500.0)
    scaled = patch_power_scale(sigma0=0.02, area=900.0, tx_gain=2.0 * k, rx_gain=0.7,
                               wavelength=0.03, r_tx=4000.0, r_rx=4500.0)
    assert scaled == pytest.approx(k * base, rel=1e-12)


def test_power_scales_vectorized_matches_scalar():
    rng = np.random.default_rng(9)
    n = 50
    sigma0 = rng.uniform(0, 0.1, n)
    area = rng.uniform(100, 1000, n)
    txg = rng.uniform(0, 10, n)
    rxg = rng.uniform(0, 2, n)
    r1 = rng.uniform(1e3, 2e4, n)
    r2 = rng.uniform(1e3, 2e4, n)
    vec = patch_power_scales(sigma0, area, txg, rxg, 0.03, r1, r2)
    for i in range(n):
        want = patch_power_scale(sigma0[i], area[i], txg[i], rxg[i], 0.03, r1[i], r2[i])
        assert vec[i] == want
    assert np.all(vec >= 0.0)


def test_power_scale_input_validation():
    with pytest.raises(ValueError):
        patch_power_scale(0.1, 900.0, 1.0, 1.0, 0.03, r_tx=0.0, r_rx=1000.0)
    with pytest.raises(ValueError):
        patch_power_scale(-0.1, 900.0, 1.0, 1.0, 0.03, r_tx=1e3, r_rx=1e3)
    with pytest.raises(ConfigurationError):
        patch_power_scale(0.1, 900.0, 1.0, 1.0, 0.0, r_tx=1e3, r_rx=1e3)


# --- table file format ---------------------------------------------------------

def test_table_round_trip(tmp_path):
    table = ScatteringTable(entries={
        (GRASS, "X"): Reflectivity(gamma_db=-15.0),
        (URBAN, "L"): Reflectivity(gamma_db=-4.5, poly_db=(-18.0, 6.0, -1.0)),
    })
    path = tmp_path / "table.txt"
    write_scattering_table(path, table)
    back = read_scattering_table(path)
    assert back.entries == table.entries


def test_table_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 X not-a-number\n")
    with pytest.raises(ConfigurationError):
        read_scattering_table(path)


def test_table_reader_rejects_a_repeated_class_and_band(tmp_path):
    """A second line for one (class, band) is an error naming the file
    and both lines, not a silent override of the first."""
    path = tmp_path / "twice.txt"
    path.write_text("1 X -15\n# corrected\n3 X -5\n1 X -10\n")
    with pytest.raises(ConfigurationError,
                       match=r"twice\.txt: line 4: class 1 in band X repeats line 1"):
        read_scattering_table(path)
    path.write_text("1 X -15\n1 L -10\n")
    assert sorted(read_scattering_table(path).entries) == [(1, "L"), (1, "X")]
