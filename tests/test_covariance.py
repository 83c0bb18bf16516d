"""Statistical clutter model: snapshot draws against the ensemble covariance."""

import numpy as np
import pytest

from rfclutter.errors import ConfigurationError
from rfclutter.seeding import derive_rng

from oracles import (clutter_covariance, draw_snapshots, homogeneity_distance,
                     sample_covariance)


def random_patch_model(n_patches, dim, seed):
    """Gains plus unit-modulus steering rows, reproducible."""
    rng = derive_rng(seed, 999)
    gains = rng.uniform(0.1, 2.0, n_patches)
    phases = rng.uniform(0.0, 2.0 * np.pi, (n_patches, dim))
    return gains, np.exp(1j * phases)


def test_ensemble_covariance_hand_case():
    # two patches on orthogonal unit vectors: R is diagonal with the gains
    steer = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    r = clutter_covariance([3.0, 5.0], steer)
    np.testing.assert_allclose(r, np.diag([3.0, 5.0]), atol=1e-15)


def test_ensemble_covariance_rank_one():
    v = np.array([[1.0, 1j, -1.0]], dtype=np.complex128)
    r = clutter_covariance([2.0], v)
    np.testing.assert_allclose(r, 2.0 * np.outer(v[0], v[0].conj()), atol=1e-15)
    # exactly Hermitian, PSD
    np.testing.assert_array_equal(r, r.conj().T)
    evals = np.linalg.eigvalsh(r)
    assert evals.min() >= -1e-12 * evals.max()


def test_zero_gain_patches_do_not_perturb():
    gains, steer = random_patch_model(12, 4, seed=1)
    r_base = clutter_covariance(gains, steer)
    # append shadowed patches with arbitrary steering: bit-identical result
    extra = np.vstack([steer, np.exp(1j * np.linspace(0, 5, 4))[None, :]])
    r_aug = clutter_covariance(np.append(gains, 0.0), extra)
    np.testing.assert_array_equal(r_base, r_aug)


def test_all_shadowed_gives_zero_matrix():
    _, steer = random_patch_model(3, 5, seed=2)
    r = clutter_covariance(np.zeros(3), steer)
    np.testing.assert_array_equal(r, np.zeros((5, 5)))


def test_snapshot_deterministic_and_seed_sensitive():
    gains, steer = random_patch_model(8, 6, seed=3)
    a = draw_snapshots(gains, steer, 1, seed=11)
    b = draw_snapshots(gains, steer, 1, seed=11)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, draw_snapshots(gains, steer, 1, seed=12))


def test_batch_rows_are_iid_not_repeats():
    gains, steer = random_patch_model(8, 6, seed=4)
    x = draw_snapshots(gains, steer, 4, seed=11)
    assert x.shape == (4, 6)
    assert not np.array_equal(x[0], x[1])
    np.testing.assert_array_equal(x, draw_snapshots(gains, steer, 4, seed=11))


def test_sample_covariance_matches_direct_sum():
    rng = derive_rng(5, 999)
    x = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    r = sample_covariance(x)
    want = sum(np.outer(x[k], x[k].conj()) for k in range(7)) / 7
    np.testing.assert_allclose(r, want, rtol=1e-13)
    np.testing.assert_array_equal(r, r.conj().T)


def test_sample_converges_to_ensemble():
    """Monte-Carlo covariance approaches the closed form as K grows."""
    gains, steer = random_patch_model(10, 4, seed=6)
    r_true = clutter_covariance(gains, steer)
    scale = np.linalg.norm(r_true)

    def frob_err(count):
        x = draw_snapshots(gains, steer, count, seed=21)
        return np.linalg.norm(sample_covariance(x) - r_true) / scale

    e_small = frob_err(2000)
    e_big = frob_err(32000)
    assert e_big < 0.05
    # K^{-1/2} scaling: a 16x batch should cut the error by roughly 4
    assert e_big < e_small / 1.5


def test_snapshot_second_moment_per_entry():
    gains, steer = random_patch_model(5, 3, seed=7)
    r_true = clutter_covariance(gains, steer)
    x = draw_snapshots(gains, steer, 60000, seed=30)
    r_hat = sample_covariance(x)
    np.testing.assert_allclose(r_hat, r_true, atol=0.05 * np.abs(r_true).max())


def test_homogeneity_small_for_stationary_draws():
    gains, steer = random_patch_model(10, 4, seed=8)
    x = draw_snapshots(gains, steer, 20000, seed=40)
    assert homogeneity_distance(x) < 0.1


def test_homogeneity_flags_mismatched_halves():
    gains, steer = random_patch_model(10, 4, seed=9)
    a = draw_snapshots(gains, steer, 4000, seed=41)
    b = draw_snapshots(10.0 * gains, steer, 4000, seed=42)
    mixed = np.vstack([a, b])
    assert homogeneity_distance(mixed) > 0.5


def test_validation():
    gains, steer = random_patch_model(4, 3, seed=10)
    with pytest.raises(ConfigurationError):
        clutter_covariance(gains[:3], steer)
    with pytest.raises(ValueError):
        clutter_covariance(-gains, steer)
    with pytest.raises(ConfigurationError):
        draw_snapshots(gains, steer, 0, seed=1)
    with pytest.raises(ValueError):
        homogeneity_distance(steer[:1])
