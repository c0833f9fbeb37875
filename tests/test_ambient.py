"""Quaternionic algebra and ambient curvature, and the curvature tensor as
the oracle of the kernel's geodesic sphere."""

import math

import numpy as np
import pytest

from qimcf import (apply_J, cached_grid, curvature_tensor, initial_profile,
                   profile_derivatives, ricci_check, sectional, verify_ambient)
from qimcf.geometry import q_terms


def unit(dim, k):
    e = np.zeros(dim)
    e[k] = 1.0
    return e


def test_left_multiplication_table():
    # J1 e0 = e1, J2 e0 = e2, J3 e0 = e3 per quaternion block
    for i in (1, 2, 3):
        assert np.array_equal(apply_J(i, unit(8, 0)), unit(8, i))
        assert np.array_equal(apply_J(i, unit(8, 4)), unit(8, 4 + i))


def test_J_algebra():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        for i in (1, 2, 3):
            assert np.allclose(apply_J(i, apply_J(i, x)), -x, atol=1e-12)
            # orthogonal and skew
            assert abs(apply_J(i, x) @ apply_J(i, y) - x @ y) < 1e-12
            assert abs(apply_J(i, x) @ y + x @ apply_J(i, y)) < 1e-12
        assert np.allclose(apply_J(1, apply_J(2, x)), apply_J(3, x),
                           atol=1e-12)
        assert np.allclose(apply_J(2, apply_J(3, x)), apply_J(1, x),
                           atol=1e-12)


def test_apply_J_batched_and_errors():
    rng = np.random.default_rng(4)
    batch = rng.standard_normal((5, 3, 8))
    out = apply_J(2, batch)
    assert out.shape == batch.shape
    assert np.allclose(out[2, 1], apply_J(2, batch[2, 1]))
    with pytest.raises(ValueError):
        apply_J(0, batch)
    with pytest.raises(ValueError):
        apply_J(1, rng.standard_normal(7))


def test_sectional_anchor_values():
    rng = np.random.default_rng(7)
    for _ in range(20):
        X = rng.standard_normal(8)
        X /= np.linalg.norm(X)
        # quaternionic planes
        for i in (1, 2, 3):
            assert abs(sectional(X, apply_J(i, X)) + 4.0) < 1e-12
        # plane orthogonal to the quaternionic span
        Y = rng.standard_normal(8)
        for b in (X, apply_J(1, X), apply_J(2, X), apply_J(3, X)):
            Y -= (Y @ b) * b
        Y /= np.linalg.norm(Y)
        assert abs(sectional(X, Y) + 1.0) < 1e-10


def test_sectional_range_random_pairs():
    rng = np.random.default_rng(8)
    pairs, values = [], []
    for _ in range(200):
        X = rng.standard_normal(8)
        X /= np.linalg.norm(X)
        Y = rng.standard_normal(8)
        Y -= (Y @ X) * X
        Y /= np.linalg.norm(Y)
        K = sectional(X, Y)
        assert -4.0 - 1e-12 <= K <= -1.0 + 1e-12
        # definition agrees with the full tensor
        assert abs(K - curvature_tensor(X, Y, X, Y)) < 1e-12
        pairs.append((X, Y))
        values.append(K)
    # one batched call per function gives the per-pair values
    X, Y = np.stack(pairs, axis=1)
    assert np.allclose(sectional(X, Y), values, rtol=0, atol=1e-14)
    assert np.allclose(curvature_tensor(X, Y, X, Y), values, rtol=0,
                       atol=1e-12)
    with pytest.raises(ValueError):
        sectional(np.ones(8), np.ones(8))


def test_curvature_symmetries_and_bianchi():
    rng = np.random.default_rng(9)
    for _ in range(30):
        X, Y, Z, W = (rng.standard_normal(8) for _ in range(4))
        r = curvature_tensor(X, Y, Z, W)
        assert abs(r - curvature_tensor(Z, W, X, Y)) < 1e-10
        assert abs(r + curvature_tensor(Y, X, Z, W)) < 1e-10
        assert abs(r + curvature_tensor(X, Y, W, Z)) < 1e-10
        bianchi = (r + curvature_tensor(Y, Z, X, W)
                   + curvature_tensor(Z, X, Y, W))
        assert abs(bianchi) < 1e-10


def test_ricci_constant():
    rep = ricci_check(2, 30, seed=11)
    assert rep["expected"] == -16.0
    assert rep["max_error"] < 1e-10
    rep3 = ricci_check(3, 10, seed=11)
    assert rep3["expected"] == -20.0
    assert rep3["max_error"] < 1e-10
    with pytest.raises(ValueError):
        ricci_check(1, 5)
    with pytest.raises(ValueError):
        ricci_check(2, 0)


def test_ricci_radial_direction():
    # Ric(u,u) for the first coordinate direction, traced explicitly
    dim = 8
    u = unit(dim, 0)
    basis = np.eye(dim)
    ric = sum(float(curvature_tensor(u, e, u, e)) for e in basis)
    assert abs(ric + 16.0) < 1e-12


def test_verify_ambient_report():
    rep = verify_ambient(2, 150, seed=12)
    assert rep["sectional_range_violation"] < 1e-10
    assert rep["quaternionic_plane_error"] < 1e-10
    assert rep["real_plane_error"] < 1e-10
    assert rep["pair_symmetry_error"] < 1e-10
    assert rep["bianchi_error"] < 1e-10
    assert rep["ricci_max_error"] < 1e-10
    assert -4.0 <= rep["sectional_min"] <= rep["sectional_max"] <= -1.0


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
def test_jacobi_fields_give_the_kernel_sphere(n):
    # along a unit-speed geodesic in direction u, the Jacobi operator
    # M_jk = R(e_j, u, e_k, u) on u^perp has -M with eigenvalues kappa;
    # a Jacobi field vanishing at the center grows as
    # sinh(sqrt(kappa) rho) / sqrt(kappa), so the geodesic sphere of
    # radius rho has mean curvature sum sqrt(kappa) coth(sqrt(kappa) rho)
    # and area density prod sinh(sqrt(kappa) rho) / sqrt(kappa): the
    # kernel's hat_K/sinh and H, and q_terms' volume over Vol(S^{4n-1}),
    # on a sphere profile
    rng = np.random.default_rng(n)
    dim = 4 * n
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    columns = np.column_stack([u, rng.standard_normal((dim, dim - 1))])
    e = np.linalg.qr(columns)[0][:, 1:].T  # an orthonormal basis of u^perp
    M = curvature_tensor(e[:, None], u, e[None, :], u)
    kappa = np.linalg.eigvalsh(-M)
    expected = np.array([1.0] * (dim - 4) + [4.0] * 3)
    assert np.max(np.abs(kappa - expected)) < 1e-12
    root = np.sqrt(kappa)
    volume_S = cached_grid(n, 32).volume
    for rho in np.geomspace(0.05, 20.0, 25):
        mean_curvature = float(np.sum(root / np.tanh(root * rho)))
        log_density = float(np.sum(np.log(np.sinh(root * rho) / root)))
        profile = initial_profile(n, 32, rho)
        ker = profile.kernel_values
        d = profile_derivatives(profile)
        assert np.max(np.abs(ker.hat_K / ker.sinh / mean_curvature - 1)) \
            < 1e-14
        assert np.max(np.abs(d.H / mean_curvature - 1)) < 1e-14
        volume = q_terms(profile, d)[0]
        if math.isfinite(volume):
            assert abs(math.log(volume / volume_S) - log_density) < 1e-12
        else:
            # past the float range: the orbit density q_terms forms,
            # sinh^{4n-1} cosh^3, in log scale
            assert abs(((4 * n - 1) * np.log(ker.sinh[0])
                        + 3 * np.log(ker.cosh[0])) / log_density - 1) < 1e-12
