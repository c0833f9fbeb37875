"""Limit extraction, the limiting Q functional, verdicts, decay fits."""

import numpy as np
import pytest

from qimcf import (ConformalFactor, RadialProfile, cached_grid,
                   constancy_verdict, extract_conformal_factor,
                   fit_decay_rate, limit_Q)
from qimcf.limits import VERDICT_TOL, LimitSnapshots
from conftest import execute_run
from integration_by_parts_oracle import limit_q_lap_form
from linear_oracle import mode, small_limit_q

LIMIT_Q_COS2_256 = 0.24831212100578196  # f = 0.1 cos(2 theta), n = 2, N = 256


def make_factor(f_values, n=2):
    return ConformalFactor(n=n, f=np.asarray(f_values, float),
                           t_extracted=40.0, cauchy_residual=0.0)


def cos_factor(amplitude, N=256, harmonics=((2, 1.0),), n=2):
    theta = cached_grid(n, N).theta
    f = np.zeros(N)
    for k, w in harmonics:
        f += amplitude * w * np.cos(k * theta)
    return ConformalFactor(n=n, f=f, t_extracted=40.0, cauchy_residual=0.0)


def test_extract_sphere_limit_is_flat(sphere_run):
    factor = extract_conformal_factor(sphere_run.snapshots)
    assert factor.t_extracted == 40.0
    assert np.max(np.abs(factor.f)) < 1e-8
    assert factor.cauchy_residual < 1e-8


def test_extract_zero_orbit_mean(bump_run):
    factor = extract_conformal_factor(bump_run.snapshots)
    grid = cached_grid(factor.n, factor.f.size)
    assert abs(grid.weights @ factor.f) < 1e-12
    assert factor.f.shape == grid.theta.shape


def test_extract_picks_latest_and_half_time():
    grid = cached_grid(2, 64)
    theta, wts = grid.theta, grid.weights

    def prof(rho):
        return RadialProfile(n=2, rho=rho)

    p12 = prof(1.0 + 0.3 * np.cos(2 * theta))
    p20 = prof(2.0 + 0.1 * np.cos(2 * theta))
    p40 = prof(4.0 + 0.1 * np.cos(2 * theta) + 0.01 * np.cos(4 * theta))
    factor = extract_conformal_factor([(12.0, p12), (40.0, p40), (20.0, p20)])
    assert factor.t_extracted == 40.0
    f40 = p40.rho - wts @ p40.rho
    f20 = p20.rho - wts @ p20.rho
    assert np.allclose(factor.f, f40, atol=1e-15)
    assert factor.cauchy_residual == pytest.approx(np.max(np.abs(f40 - f20)))


def test_half_time_tie_takes_the_earlier():
    # at t_final = 41, records 20 and 21 are equally near 20.5
    theta = cached_grid(2, 32).theta
    snaps = [(float(t), RadialProfile(
        n=2, rho=t + 0.01 * t * np.cos(2 * theta)))
        for t in range(5, 42)]
    f = {t: p.rho - float(p.grid.weights @ p.rho) for t, p in snaps}
    factor = extract_conformal_factor(snaps[::-1])
    assert factor.cauchy_residual == float(np.max(np.abs(f[41.0] - f[20.0])))
    kept = LimitSnapshots(41.0)
    for t, p in snaps:
        kept.add(t, p)
    assert [t for t, _ in kept.kept] == [20.0, 41.0]


def test_extract_sorts_snapshots_by_time_alone():
    # two snapshots at one time: sorting the (t, profile) pairs compared
    # the profiles, and numpy refused the truth value of the comparison
    theta = cached_grid(2, 32).theta
    p = RadialProfile(n=2, rho=2.0 + 0.1 * np.cos(2 * theta))
    q = RadialProfile(n=2, rho=1.5 + 0.2 * np.cos(2 * theta))
    factor = extract_conformal_factor([(12.0, p), (12.0, q), (20.0, p)])
    assert factor.t_extracted == 20.0
    assert np.array_equal(factor.f, p.rho - float(p.grid.weights @ p.rho))
    assert factor.cauchy_residual == 0.0  # the first of the tied pair


def test_extract_needs_two_usable_snapshots():
    p = RadialProfile(n=2, rho=np.full(32, 2.0))
    with pytest.raises(ValueError):
        extract_conformal_factor([])
    with pytest.raises(ValueError):
        extract_conformal_factor([(0.0, p), (5.0, p), (12.0, p)])


def test_extract_is_stable_in_final_time(bump_run):
    snaps = bump_run.snapshots
    f40 = extract_conformal_factor(snaps).f
    f30 = extract_conformal_factor([s for s in snaps if s[0] <= 30.0]).f
    assert np.max(np.abs(f40 - f30)) < 1e-3
    r40 = f40.max() - f40.min()
    r30 = f30.max() - f30.min()
    assert abs(r40 - r30) < 1e-3


def test_extract_quotients_out_initial_radius(tau_run):
    # two members of the tau family differing only by the starting
    # radius settle to the same zero-mean limit profile
    shifted = execute_run(256, 4.5, 0.1)
    f_a = extract_conformal_factor(tau_run.snapshots).f
    f_b = extract_conformal_factor(shifted.snapshots).f
    assert np.max(np.abs(f_a - f_b)) < 1e-4


def test_limit_q_zero_for_constant():
    assert limit_Q(make_factor(np.zeros(256))) == 0.0
    assert abs(limit_Q(make_factor(np.full(256, 0.37)))) < 1e-10


def test_limit_q_static_anchor():
    assert limit_Q(cos_factor(0.1)) == pytest.approx(
        LIMIT_Q_COS2_256, abs=1e-12)


def test_limit_q_grid_refinement():
    coarse = limit_Q(cos_factor(0.1, N=256))
    fine = limit_Q(cos_factor(0.1, N=512))
    dense = limit_Q(cos_factor(0.1, N=4096))
    assert abs(fine - coarse) < 1e-6
    assert abs(dense - coarse) < 1e-6
    # no second difference, no cancellation: converged to 1e-12 at N = 1024
    finest = limit_Q(cos_factor(0.1, N=8192))
    assert abs(finest - limit_Q(cos_factor(0.1, N=1024))) < 1e-11


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (2, 2)])
def test_limit_q_small_amplitude_closed_form(n, k, N):
    # at a = 1e-7 the z Lap z - m z'^2 form (integration_by_parts_oracle)
    # is off by up to 436% and goes negative; the sum of squares keeps
    # its relative digits
    a = 1e-7
    grid = cached_grid(n, N)
    P = mode(n, k, grid.theta)
    q = limit_Q(make_factor(a * (P - grid.weights @ P), n=n))
    assert q == pytest.approx(small_limit_q(n, k, a), rel=1e-5, abs=0)


@pytest.mark.parametrize("n", [2, 3, 48, 109])
def test_limit_q_never_negative_and_zero_when_flat(n):
    rng = np.random.default_rng(n)
    theta = cached_grid(n, 64).theta
    for scale in (1e-12, 1e-7, 1e-3, 0.3):
        smooth = sum(rng.standard_normal() * np.cos(2 * j * theta)
                     for j in range(1, 7))
        for f in (smooth, rng.standard_normal(64)):
            assert limit_Q(make_factor(scale * f, n=n)) >= 0.0
    for level in (0.0, 0.37, -400.0):
        assert limit_Q(make_factor(np.full(64, level), n=n)) == 0.0


@pytest.mark.parametrize("N", [256, 512])
@pytest.mark.parametrize("n", [2, 3])
def test_limit_q_is_the_lap_form_integrated_by_parts(n, N):
    # the forms differ by the second difference's O(dtheta^4) error:
    # 0.81 dtheta^4 at n = 3, 0.12 dtheta^4 at n = 2
    factor = cos_factor(0.1, N=N, n=n)
    dtheta = cached_grid(n, N).dtheta
    assert abs(limit_Q(factor) - limit_q_lap_form(factor)) < dtheta**4


def test_limit_q_shift_invariance():
    theta = cached_grid(2, 256).theta
    f0 = 0.1 * np.cos(2 * theta) + 0.03 * np.cos(4 * theta)
    base = limit_Q(make_factor(f0))
    rng = np.random.default_rng(7)
    for shift in rng.uniform(-1.0, 1.0, size=5):
        assert abs(limit_Q(make_factor(f0 + shift)) - base) < 1e-9


def test_limit_q_large_shifts_do_not_overflow():
    # e^{2mf} overflowed at f + 100 (m = 5), and limit_Q came out NaN;
    # evaluated at f - max f in log scale it is the same number
    base = limit_Q(cos_factor(0.1))
    for shift in (100.0, -400.0, 400.0):
        shifted = make_factor(cos_factor(0.1).f + shift)
        assert limit_Q(shifted) == pytest.approx(base, rel=1e-10, abs=0)


def test_limit_q_sign_for_small_bumps():
    # a non-constant factor gives nonzero limiting Q; limit_Q is a sum
    # of squares, so bumps of either sign give a positive value at every
    # order, not only at leading order
    assert limit_Q(cos_factor(0.05)) > 1e-3
    assert limit_Q(cos_factor(-0.05)) > 1e-3


def test_verdict_constant_for_sphere(sphere_run):
    factor = extract_conformal_factor(sphere_run.snapshots)
    verdict = constancy_verdict(factor)
    assert verdict.verdict == "CONSTANT"
    assert verdict.f_range < 1e-6
    assert abs(verdict.limit_Q) < 1e-8


def test_verdict_non_constant_for_bump(bump_run):
    factor = extract_conformal_factor(bump_run.snapshots)
    verdict = constancy_verdict(factor)
    assert verdict.verdict == "NON_CONSTANT"
    assert verdict.f_range > 0.1
    assert abs(verdict.limit_Q) > 1e-3


def test_verdict_tolerates_noise_below_tol():
    rng = np.random.default_rng(3)
    factor = make_factor(1e-9 * rng.standard_normal(256))
    assert constancy_verdict(factor).verdict == "CONSTANT"
    step = make_factor(np.repeat([0.0, 2 * VERDICT_TOL], 128))
    assert constancy_verdict(step).verdict == "NON_CONSTANT"


def test_fit_decay_rate_exact():
    t = np.linspace(0.0, 20.0, 41)
    series = list(zip(t, 3.0 * np.exp(-t / 5)))
    rate = fit_decay_rate(series, t_min=0.0)
    assert rate == pytest.approx(-0.2, abs=1e-12)


def test_fit_decay_rate_flat_series():
    series = [(float(t), 2.5) for t in range(15)]
    assert abs(fit_decay_rate(series, t_min=0.0)) < 1e-12


def test_fit_decay_rate_respects_t_min():
    # early points lie off the asymptotic line; t_min excludes them
    t = np.linspace(0.0, 30.0, 61)
    y = np.exp(-0.5 * t) + 10.0 * np.exp(-5.0 * t)
    full_rate = fit_decay_rate(list(zip(t, y)), t_min=0.0)
    tail_rate = fit_decay_rate(list(zip(t, y)), t_min=10.0)
    assert abs(tail_rate + 0.5) < 1e-6
    assert abs(full_rate + 0.5) > abs(tail_rate + 0.5)


def test_fit_decay_rate_errors():
    t = np.linspace(0.0, 20.0, 41)
    good = list(zip(t, np.exp(-t)))
    with pytest.raises(ValueError):
        fit_decay_rate(good, t_min=19.0)  # too few points left
    bad = list(zip(t, np.exp(-t) - 0.5))
    with pytest.raises(ValueError):
        fit_decay_rate(bad, t_min=0.0)


def test_fit_gradient_decay_on_run(bump_run):
    series = [(r.t, r.sup_grad_phi_sq) for r in bump_run.records]
    assert fit_decay_rate(series, t_min=10.0) < -0.18
