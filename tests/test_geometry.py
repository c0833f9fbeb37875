"""Pointwise and integral geometry of invariant radial graphs."""

import math

import numpy as np
import pytest

from qimcf import (RadialProfile, cached_grid, initial_profile, kernel,
                   profile_derivatives)
from qimcf.geometry import (KernelWork, _a_norm_sq_excess, _sphere_excess,
                            q_terms, reduced_weight)
from shape_operator_oracle import (general_mean_curvature,
                                   shape_operator_adapted)
from sphere_ode_oracle import hat_H

COTH1 = 1.3130352854993313      # coth(1)
TWO_COTH2 = 2.0746294414550962  # 2 coth(2) = coth(1) + tanh(1)
HAT_H_2_1 = 11.476029466362614  # 7 coth(1) + 3 tanh(1)
A2_CONST_2_1 = 19.808508601922095   # 4 coth(1)^2 + 3 (2 coth 2)^2
VOL_S7 = 32.469697011334146         # pi^4 / 3
TOTAL_VOL_2_1 = 369.34282478192679  # Vol(S^7) sinh(1)^7 cosh(1)^3


def bump(n=2, N=256, r0=3.0, a=0.1):
    return initial_profile(n, N, r0, a)


def test_hat_H_values():
    assert abs(hat_H(2, 1.0) - HAT_H_2_1) < 1e-12
    # horosphere limit 4n+2
    assert abs(hat_H(2, 50.0) - 10.0) < 1e-12
    assert abs(hat_H(3, 50.0) - 14.0) < 1e-12
    # blows up like (4n-1)/rho at the origin
    assert abs(hat_H(2, 1e-6) - 7e6) / 7e6 < 1e-9
    with pytest.raises(ValueError):
        hat_H(2, 0.0)
    with pytest.raises(ValueError):
        hat_H(2, -1.0)


def test_reduced_weight_values():
    assert abs(reduced_weight(2, np.pi / 4)) < 1e-14
    assert abs(reduced_weight(2, np.pi / 6) - 2 * np.sqrt(3)) < 1e-12
    assert abs(reduced_weight(3, np.pi / 4) - 4.0) < 1e-12
    with pytest.raises(ValueError):
        reduced_weight(2, 0.0)
    with pytest.raises(ValueError):
        reduced_weight(2, np.pi / 2)


def test_reduced_weight_is_log_derivative_of_orbit_volume():
    # w = d/dtheta log(sin^{4n-5} cos^3); the centered-difference
    # comparison only makes sense away from the poles, where log J and
    # its derivatives blow up
    for n in (2, 3):
        grid = cached_grid(n, 512)
        theta, dth = grid.theta, grid.dtheta
        J = np.sin(theta) ** (4 * n - 5) * np.cos(theta) ** 3
        logJ = np.log(J)
        d_num = (logJ[2:] - logJ[:-2]) / (2 * dth)
        w = reduced_weight(n, theta[1:-1])
        mid = (theta[1:-1] > 0.2) & (theta[1:-1] < 1.35)
        assert np.max(np.abs(d_num - w)[mid]) < 5e-3
        # and the exact identity, via the closed forms
        w_exact = (4 * n - 5) / np.tan(theta) - 3 * np.tan(theta)
        assert np.max(np.abs(reduced_weight(n, theta) - w_exact)) < 1e-10


def test_profile_invariants():
    with pytest.raises(ValueError):
        RadialProfile(n=1, rho=np.array([1.0]))
    with pytest.raises(ValueError):
        RadialProfile(n=2, rho=np.zeros(64))
    with pytest.raises(ValueError, match="rho must be a 1d array"):
        RadialProfile(n=2, rho=np.ones((2, 64)))
    prof = bump()
    assert prof.theta.size == 256
    assert abs(prof.grid.dtheta - (np.pi / 2) / 256) < 1e-16
    # cell-centered: no endpoint nodes
    assert prof.theta[0] > 0 and prof.theta[-1] < np.pi / 2
    prof = RadialProfile(n=2, rho=np.full(64, 2.0))
    assert prof.theta is prof.grid.theta


def test_grid_is_cached_and_read_only():
    grid = cached_grid(2, 128)
    assert cached_grid(2, 128) is grid
    assert cached_grid(3, 128) is not grid
    dtheta = (np.pi / 2) / 128
    assert grid.dtheta == dtheta
    assert np.array_equal(grid.theta, (np.arange(128) + 0.5) * dtheta)
    assert np.array_equal(grid.w, reduced_weight(2, grid.theta))
    assert abs(grid.volume * grid.weights.sum() - VOL_S7) < 1e-10
    for arr in (grid.theta, grid.w, grid.weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(ValueError):
        cached_grid(1, 128)
    with pytest.raises(ValueError, match="grid_size must be >= 2"):
        cached_grid(2, 1)


def test_kernel_H_is_shape_operator_trace_at_every_node():
    for n in (2, 3):
        prof = bump(n=n, N=256)
        d = profile_derivatives(prof)
        trace = [np.trace(shape_operator_adapted(prof, d, k))
                 for k in range(256)]
        assert np.max(np.abs(d.H - trace)) < 1e-10


def _phi_route(grid, rho):
    """v, H and sinh rho through phi' = rho'/sinh rho and phi'': the
    even-ghost central differences, v = sqrt(1 + phi'^2) and H = [hat_H
    - (phi''/v^2 + w phi')/sinh rho]/v."""
    ext = np.pad(rho, 1, mode="edge")
    rho_t = (ext[2:] - ext[:-2]) / (2 * grid.dtheta)
    rho_tt = (ext[2:] - 2 * rho + ext[:-2]) / grid.dtheta**2
    sh = np.sinh(rho)
    phi_t = rho_t / sh
    phi_tt = (rho_tt - np.cosh(rho) * rho_t * phi_t) / sh
    v = np.sqrt(1 + phi_t**2)
    H = (hat_H(grid.n, rho) - (phi_tt / v**2 + grid.w * phi_t) / sh) / v
    return v, H, sh


@pytest.mark.parametrize("kind", ["bump", "tau_family", "steep_pole"])
def test_kernel_speed_and_cfl_quantity(kind):
    # the step's speed A/(sinh K) is v/H and K is H sinh(rho) v, both as
    # profile_derivatives gives them and through phi
    for n in (2, 3, 8, 48):
        for N in (64, 1024):
            grid = cached_grid(n, N)
            if kind == "steep_pole":
                rho = 0.3 + 0.05 * np.exp(-(grid.theta / 0.05)**2)
            else:
                r0 = 3.0 if kind == "bump" else 8.0
                rho = initial_profile(n, N, r0, 0.1).rho
            k = kernel(grid, rho, KernelWork(N))
            ev = profile_derivatives(RadialProfile(n, rho))
            v, H, sh = _phi_route(grid, rho)
            speed = k.A / (k.sinh * k.K)
            assert np.max(np.abs(speed / (ev.v / ev.H) - 1)) < 1e-12
            assert np.max(np.abs(speed / (v / H) - 1)) < 1e-12
            assert np.max(np.abs(k.K / (ev.H * ev.sinh * ev.v) - 1)) < 1e-12
            assert np.max(np.abs(k.K / (H * sh * v) - 1)) < 1e-12


def test_kernel_workspace_is_bit_identical():
    # one workspace, reused on a second rho and on an n = 48 grid, gives
    # exactly the fresh kernel's values, and both are the plain formulas
    # bit for bit; a workspace of another size is refused
    work = KernelWork(256)
    for profile in (bump(), bump(r0=2.0, a=0.3), bump(n=48, r0=1.5)):
        grid, rho = profile.grid, profile.rho
        d = np.concatenate(([0.0], np.diff(rho), [0.0]))
        rho_t = (d[1:] + d[:-1]) * (0.5 / grid.dtheta)
        rho_tt = (d[1:] - d[:-1]) * grid.dtheta**-2
        s, c = np.sinh(rho), np.cosh(rho)
        A = s * s + rho_t * rho_t
        hat_K = (4 * grid.n + 2) * c - 3 / c
        K = hat_K - (rho_tt * s - c * (rho_t * rho_t)) / A \
            - grid.w * rho_t / s
        plain = (rho_t, rho_tt, s, c, A, hat_K, K)
        fresh = kernel(grid, rho, KernelWork(rho.size))
        reused = kernel(grid, rho, work)
        assert reused is work.values
        for a, b, p in zip(fresh, reused, plain):
            assert a.tobytes() == b.tobytes() == p.tobytes()
    with pytest.raises(ValueError, match="workspace for 256 nodes"):
        kernel(cached_grid(2, 128), bump(N=128).rho, work)


def test_derivatives_constant_profile():
    prof = initial_profile(2, 128, 1.3)
    d = profile_derivatives(prof)
    assert np.all(d.phi_t == 0)
    assert np.all(d.phi_tt == 0)
    assert np.all(d.v == 1)


def test_derivatives_match_analytic_bump():
    # rho = r0 + a cos(2 theta) has closed-form derivatives; the stencils
    # are second order, so errors shrink by 4 per refinement
    errs = []
    for N in (128, 256):
        prof = bump(N=N)
        d = profile_derivatives(prof)
        sh = np.sinh(prof.rho)
        ch = np.cosh(prof.rho)
        rp = -0.2 * np.sin(2 * prof.theta)
        rpp = -0.4 * np.cos(2 * prof.theta)
        phi_t = rp / sh
        phi_tt = rpp / sh - ch * rp**2 / sh**2
        errs.append(max(np.max(np.abs(d.phi_t - phi_t)),
                        np.max(np.abs(d.phi_tt - phi_tt))))
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] > 3.0


def test_mean_curvature_constant_profile():
    prof = initial_profile(2, 64, 1.0)
    d = profile_derivatives(prof)
    H = d.H
    assert np.max(np.abs(H - HAT_H_2_1)) < 1e-12
    assert abs(d.H[17] - HAT_H_2_1) < 1e-12
    far = initial_profile(2, 64, 40.0)
    Hfar = profile_derivatives(far).H
    assert np.max(np.abs(Hfar - 10.0)) < 1e-12


def test_mean_curvature_independent_evaluation():
    # same formula fed by an independent discretization (np.gradient twice)
    # agrees at the mid-grid node to well below 1e-8
    prof = bump()
    d = profile_derivatives(prof)
    k = 128  # theta ~ pi/4
    d1 = np.gradient(prof.rho, prof.grid.dtheta, edge_order=2)
    d2 = np.gradient(d1, prof.grid.dtheta, edge_order=2)
    sh, ch = np.sinh(prof.rho[k]), np.cosh(prof.rho[k])
    phi_t = d1[k] / sh
    phi_tt = d2[k] / sh - ch * d1[k] ** 2 / sh**2
    v = math.sqrt(1 + phi_t**2)
    contraction = phi_tt / v**2 + reduced_weight(2, prof.theta[k]) * phi_t
    independent = general_mean_curvature(2, prof.rho[k], v, contraction, 0.0)
    assert abs(d.H[k] - independent) < 1e-8


def test_general_mean_curvature():
    # zero gradient and Hessian: geodesic sphere value
    assert abs(general_mean_curvature(2, 1.0, 1.0, 0.0, 0.0)
               - HAT_H_2_1) < 1e-14
    # invariant reduction: vertical term absent
    prof = bump(N=128)
    d = profile_derivatives(prof)
    for k in (5, 64, 120):
        contraction = d.phi_tt[k] / d.v[k] ** 2 + prof.grid.w[k] * d.phi_t[k]
        got = general_mean_curvature(2, float(prof.rho[k]), float(d.v[k]),
                                     float(contraction), 0.0)
        assert abs(got - d.H[k]) < 1e-12
    # literal re-evaluation on randomized inputs
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        rho = float(rng.uniform(0.3, 4.0))
        v = float(rng.uniform(1.0, 3.0))
        contraction = float(rng.normal())
        grad_sq = float(rng.uniform(0.0, 2.0))
        sh, ch = math.sinh(rho), math.cosh(rho)
        expected = (-contraction / (v * sh) + hat_H(n, rho) / v
                    + sh * grad_sq / (v**3 * ch))
        got = general_mean_curvature(n, rho, v, contraction, grad_sq)
        assert abs(got - expected) < 1e-12
    with pytest.raises(ValueError):
        general_mean_curvature(2, 1.0, 0.5, 0.0, 0.0)


def test_shape_operator_constant_profile():
    prof = initial_profile(2, 64, 1.0)
    d = profile_derivatives(prof)
    S = shape_operator_adapted(prof, d, 10)
    assert S.shape == (7, 7)
    assert np.allclose(S, np.diag(np.diag(S)), atol=1e-15)
    eig = np.sort(np.diag(S))
    # 2 coth(2) on the three Hopf directions, coth(1) on the rest
    assert np.allclose(eig[:4], COTH1, atol=1e-12)
    assert np.allclose(eig[4:], TWO_COTH2, atol=1e-12)


def test_shape_operator_trace_and_couplings():
    rng = np.random.default_rng(14)
    for n in (2, 3):
        N = 96
        theta = cached_grid(n, N).theta
        rho = 2.5 + 0.2 * np.cos(2 * theta) + 0.05 * np.cos(4 * theta)
        prof = RadialProfile(n=n, rho=rho)
        d = profile_derivatives(prof)
        for k in rng.integers(0, N, size=8):
            S = shape_operator_adapted(prof, d, int(k))
            H = d.H[int(k)]
            assert abs(np.trace(S) - H) < 1e-10
            # couplings vanish iff phi' does
            off = S - np.diag(np.diag(S))
            if d.phi_t[k] == 0:
                assert np.all(off == 0)
            else:
                assert np.max(np.abs(off)) > 0


def a_norm_sq_traced(prof, d, k):
    """|A|^2 at node k as tr(S^2) of the adapted-frame shape operator."""
    S = shape_operator_adapted(prof, d, k)
    return float(np.einsum("ij,ji->", S, S))


def test_a_norm_sq_constant_profile():
    prof = initial_profile(2, 64, 1.0)
    d = profile_derivatives(prof)
    val = a_norm_sq_traced(prof, d, 30)
    assert abs(val - A2_CONST_2_1) < 1e-12
    # structural form (4n-4) coth^2 + 3 (2 coth 2 rho)^2
    assert abs(val - (4 * COTH1**2 + 3 * TWO_COTH2**2)) < 1e-12
    far = initial_profile(2, 64, 40.0)
    dfar = profile_derivatives(far)
    assert abs(a_norm_sq_traced(far, dfar, 30) - 16.0) < 1e-10


def test_a_norm_sq_dual_routes_agree():
    # tr(S^2) against the closed identity that q_terms integrates
    for prof in (bump(), bump(n=3, N=128, r0=2.0, a=0.15)):
        d = profile_derivatives(prof)
        closed = 4 * (prof.n + 2) + _a_norm_sq_excess(
            prof.n, prof.grid.angular, d, d.H,
            _sphere_excess(prof.n, d.sinh, d.cosh))
        for k in (0, prof.rho.size // 3, prof.rho.size - 1):
            assert abs(closed[k] - a_norm_sq_traced(prof, d, k)) < 1e-12


def test_q_terms_volume_carries_v():
    # a steep bump, v - 1 up to 0.14: the area density v sinh^7 cosh^3
    # with v from the analytic rho' = -2a sin(2 theta); without v the
    # volume is 5.6% low, the discrete rho' moves it by 2.7e-6
    prof = initial_profile(2, 256, 1.0, 0.3)
    rho = prof.rho
    v = np.sqrt(1 + (-0.6 * np.sin(2 * prof.theta) / np.sinh(rho))**2)
    assert 0.1 < v.max() - 1 < 0.15
    dens = v * np.sinh(rho)**7 * np.cosh(rho)**3
    expected = prof.grid.volume * float(prof.grid.weights @ dens)
    volume = q_terms(prof, profile_derivatives(prof))[0]
    assert abs(volume / expected - 1) < 1e-5


def unit_sphere_volume(n):
    """Vol(S^{4n-1}) as the grid carries it."""
    return cached_grid(n, 2).volume


def test_sphere_volume():
    assert abs(unit_sphere_volume(2) - np.pi**4 / 3) < 1e-12
    assert abs(unit_sphere_volume(3) - np.pi**6 / 60) < 1e-10


def test_sphere_volume_large_n():
    # the float formula, which holds while (2n-1)! converts to a float
    def as_float(n):
        return 2 * math.pi ** (2 * n) / math.factorial(2 * n - 1)

    for n in range(2, 9):  # every n the workloads and tests use
        assert unit_sphere_volume(n) == as_float(n)
    for n in range(9, 86):
        assert abs(unit_sphere_volume(n) - as_float(n)) \
            <= math.ulp(as_float(n))
    tiny = np.finfo(float).tiny
    assert unit_sphere_volume(86) < unit_sphere_volume(85)
    assert unit_sphere_volume(109) >= tiny > unit_sphere_volume(110) > 0


def test_grid_integral_constant_and_linearity():
    grid = cached_grid(2, 256)
    assert abs(grid.integral(np.ones(256)) - VOL_S7) < 1e-10
    rng = np.random.default_rng(15)
    f = rng.standard_normal(256)
    g = rng.standard_normal(256)
    lin = grid.integral(2.0 * f - 3.0 * g)
    assert abs(lin - (2 * grid.integral(f) - 3 * grid.integral(g))) < 1e-10


def test_grid_integral_refinement():
    vals = {}
    for N in (128, 256, 512):
        grid = cached_grid(2, N)
        vals[N] = grid.integral(np.exp(np.sin(2 * grid.theta)))
    coarse = abs(vals[128] - vals[256])
    fine = abs(vals[256] - vals[512])
    assert fine < coarse
    assert coarse < 1e-5


def test_total_volume_and_Q():
    sphere = initial_profile(2, 256, 1.0)
    volume = q_terms(sphere, profile_derivatives(sphere))[0]
    assert abs(volume - TOTAL_VOL_2_1) < 1e-9
    assert q_terms(sphere, profile_derivatives(sphere))[1] == 0.0
    # self-convergence of Q under refinement
    q1, q2 = (q_terms(p, profile_derivatives(p))[1]
              for p in (bump(N=512), bump(N=1024)))
    assert abs(q1 - q2) < 1e-6
