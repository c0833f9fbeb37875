"""Time integration: sphere ODE, method-of-lines PDE, evolution laws."""

import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from qimcf import (FlowState, MeanConvexityLost, RadialProfile, StepControl,
                   initial_profile, profile_derivatives, run_flow, step)
from qimcf.flow import (MAX_STAGES, METHODS, NonFiniteState, StiffnessError,
                        _half_stencil_eigenvalues, checked_min_K,
                        diagnostics_record, method_edges, record_index,
                        ssprk2, stage_edge)
from qimcf.config import ExperimentConfig, check_mean_convexity
from qimcf.geometry import KernelWork, cached_grid, kernel, q_terms
from sphere_ode_oracle import hat_H, integrate_sphere_ode

SPHERE_RHS_2_1 = 0.08713815200031506  # sinh cosh / (7 cosh^2 + 3 sinh^2) at 1
HEUN = ssprk2(2)

# Heun's edge kappa(n) as bisected on |1 + z + z^2/2| <= 1 over k in [0, 1]
HEUN_EDGE = {2: 0.999698931351304, 3: 0.9990977132692933,
             5: 0.9919971358031034, 8: 0.9382134461775422,
             12: 0.8166639572009444, 16: 0.7218464864417911,
             32: 0.4365419652312994}


def sphere_state(r0, N=64, n=2):
    return FlowState(t=0.0, profile=initial_profile(n, N, r0))


def test_sphere_ode_rhs_values():
    # the sphere ODE's rate 1/hat_H
    assert abs(1 / hat_H(2, 1.0) - SPHERE_RHS_2_1) < 1e-15
    assert abs(1 / hat_H(2, 50.0) - 0.1) < 1e-12
    assert abs(1 / hat_H(3, 50.0) - 1 / 14) < 1e-12
    rng = np.random.default_rng(16)
    for rho in rng.uniform(0.05, 6.0, size=100):
        sh, ch = math.sinh(rho), math.cosh(rho)
        assert abs(1 / hat_H(2, rho)
                   - sh * ch / (7 * ch**2 + 3 * sh**2)) < 1e-14
    with pytest.raises(ValueError):
        hat_H(2, 0.0)


def test_sphere_ode_drift_is_cauchy():
    t, rho = integrate_sphere_ode(2, 1.0, 60.0, 0.005)
    drift = rho - t / 10
    i40 = int(np.searchsorted(t, 40.0))
    assert abs(drift[-1] - drift[i40]) < 1e-4


def test_sphere_ode_mean_curvature_evolution():
    # d/dt H(t) = -(|A|^2 - 4(n+2))/H for spheres, with
    # |A|^2 = (4n-4) coth^2 + 3 (2 coth 2 rho)^2
    t, rho = integrate_sphere_ode(2, 1.0, 2.0, 0.01)
    H = hat_H(2, rho)
    dH = (H[2:] - H[:-2]) / (2 * 0.01)
    coth = 1 / np.tanh(rho[1:-1])
    coth2 = 1 / np.tanh(2 * rho[1:-1])
    A2 = 4 * coth**2 + 3 * (2 * coth2) ** 2
    rhs = -(A2 - 16.0) / H[1:-1]
    assert np.max(np.abs(dH - rhs)) < 1e-4  # centered-difference floor


def test_sphere_ode_comparison_bounded_gap():
    # concentric spheres: the radius gap stays comparable to its initial
    # value (speeds converge to the common horospheric rate)
    _, r1 = integrate_sphere_ode(2, 1.0, 40.0, 0.01)
    _, r2 = integrate_sphere_ode(2, 1.2, 40.0, 0.01)
    gap = np.abs(r2 - r1)
    assert gap[0] == pytest.approx(0.2, abs=1e-12)
    assert gap.max() < 0.3


def test_pde_rhs_constant_profile():
    state = sphere_state(1.0)
    ev = profile_derivatives(state.profile)
    rhs = ev.v / ev.H
    assert np.max(np.abs(rhs - 1 / hat_H(2, 1.0))) < 1e-14


def test_pde_rhs_is_v_over_H():
    # pins the coordinate-gauge speed that step integrates: one step of dt
    # moves rho by dt v/H up to O(dt^2) (2.9e-5 dt^2 here), so no hidden
    # factor (sinh rho, area weights) sneaks in; dropping v alone leaves
    # 2e-2 dt^2 at dt = 1e-3
    state = FlowState(t=0.0, profile=initial_profile(2, 256, 3.0, 0.1))
    d = profile_derivatives(state.profile)
    errors = []
    for dt in (2e-3, 1e-3):
        nxt = step(state, StepControl(t_end=1.0, dt_max=dt))
        assert nxt.last_dt == dt
        euler = state.profile.rho + dt * d.v / d.H
        errors.append(np.max(np.abs(nxt.profile.rho - euler)))
        assert errors[-1] < 1e-4 * dt**2
    assert 3.5 < errors[0] / errors[1] < 4.5


def test_pde_rhs_mean_convexity_error():
    theta = cached_grid(2, 128).theta
    profile = RadialProfile(n=2, rho=1.0 + 0.9 * np.cos(2 * theta))
    state = FlowState(t=0.0, profile=profile)
    with pytest.raises(MeanConvexityLost) as err:
        step(state, StepControl(t_end=1.0))
    assert err.value.H <= 0
    assert 0 <= err.value.node < 128
    assert err.value.t == 0.0


def guard(H, t, theta):
    """checked_min_K on kernel values with A = 1, so that H = K."""
    return checked_min_K(SimpleNamespace(K=np.array(H), A=np.ones(len(H))),
                         t, theta)


def test_non_finite_H_is_not_mean_convexity_loss():
    theta = np.array([0.1, 0.2, 0.3])
    assert guard([5.0, 2.0, 5.0], 0.0, theta) == 2.0
    # NaN compares False both ways, so H <= 0 alone would let this pass
    with pytest.raises(NonFiniteState) as err:
        guard([5.0, np.nan, 5.0], 1.5, theta)
    assert (err.value.t, err.value.node, err.value.theta) == (1.5, 1, 0.2)
    assert "node 1" in str(err.value) and "t=1.5" in str(err.value)
    with pytest.raises(NonFiniteState):
        guard([-1.0, np.inf, 5.0], 0.0, theta)
    # +inf passes H > 0 and would give the node speed v/H = 0
    with pytest.raises(NonFiniteState) as err:
        guard([5.0, np.inf, 5.0], 0.0, theta)
    assert err.value.node == 1
    with pytest.raises(MeanConvexityLost):
        guard([5.0, -1.0, 5.0], 0.0, theta)


def test_nan_stage_is_a_non_finite_state():
    # at rho = 356, A = sinh^2 overflows while K stays finite, so the first
    # stage's speed A/(sinh K) is inf/inf = NaN; the second stage's guard
    # names the node (a check of min y > 0 raised a bare ValueError)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteState) as err:
            step(sphere_state(356.0), StepControl(t_end=1.0))
    assert (err.value.t, err.value.node) == (0.0, 0)
    assert math.isnan(err.value.H)


def test_step_reports_overflowed_node():
    # sinh(800) overflows; a neighbour of the spike has H < 0, but the
    # overflowed node is what the error names
    theta = cached_grid(2, 64).theta
    rho = np.full(64, 3.0)
    rho[40] = 800.0
    state = FlowState(t=2.0, profile=RadialProfile(n=2, rho=rho))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as err:
            step(state, StepControl(t_end=3.0))
    assert (err.value.t, err.value.node) == (2.0, 40)
    assert err.value.theta == theta[40]


def test_step_names_the_node_where_H_is_not_positive():
    # steep at the pole: at n = 2, H < 0 at one node near theta = 0
    grid = cached_grid(2, 64)
    rho = 0.3 + 0.1 * np.exp(-(grid.theta / 0.05)**2)
    H = profile_derivatives(RadialProfile(n=2, rho=rho)).H
    k = int(np.argmin(H))
    assert np.flatnonzero(H <= 0).tolist() == [k]
    with pytest.raises(MeanConvexityLost) as err:
        step(FlowState(t=0.5, profile=RadialProfile(n=2, rho=rho)),
             StepControl(t_end=1.0))
    assert (err.value.t, err.value.node, err.value.H) == (0.5, k, H[k])


def test_diagnostics_record_evaluates_once(monkeypatch):
    import qimcf.flow
    import qimcf.geometry
    calls = []
    kernel = qimcf.geometry.kernel

    def counting(grid, rho, work):
        calls.append(rho.size)
        return kernel(grid, rho, work)

    monkeypatch.setattr(qimcf.geometry, "kernel", counting)
    monkeypatch.setattr(qimcf.flow, "kernel", counting)
    diagnostics_record(FlowState(t=0.0,
                                 profile=initial_profile(2, 128, 3.0, 0.1)))
    assert calls == [128]


def test_step_preserves_constancy():
    state = sphere_state(1.0, N=128)
    nxt = step(state, StepControl(t_end=1.0))
    assert nxt.profile.rho.max() - nxt.profile.rho.min() < 1e-14
    assert nxt.step_count == 1
    assert nxt.t == nxt.last_dt > 0


def test_step_volume_growth_rate():
    state = FlowState(t=0.0, profile=initial_profile(2, 256, 3.0, 0.1))
    v0 = q_terms(state.profile, profile_derivatives(state.profile))[0]
    nxt = step(state, StepControl(t_end=1.0))
    v1 = q_terms(nxt.profile, profile_derivatives(nxt.profile))[0]
    dt = nxt.last_dt
    assert abs(np.log(v1 / v0) - dt) < dt**3


def test_step_third_order_convergence():
    # a sphere stays a sphere, so the PDE error is the time error alone;
    # against the RK4 sphere ODE (at dt 1e-3 within 1e-14 of dt 1e-4),
    # every step SSPRK(3,3) at dt_max, halving dt_max divides the error
    # by ~8 (7.91 and 7.96)
    t_ode, rho_ode = integrate_sphere_ode(2, 0.5, 1.0, 1e-3)
    errors = []
    for h in (0.2, 0.1, 0.05):
        final, _ = run_flow(sphere_state(0.5, N=16),
                            StepControl(t_end=1.0, dt_max=h, record_every=1.0))
        assert final.step_count == round(1.0 / h)
        assert final.steps_by_method[0] == final.step_count
        errors.append(np.abs(final.profile.rho - rho_ode[-1]).max())
    assert 7.0 < errors[0] / errors[1] < 9.0
    assert 7.0 < errors[1] / errors[2] < 9.0


@pytest.mark.parametrize("stages,ratio", [(3, 1.6), (4, 2.6), (7, 5.5)])
def test_stage_rule_second_order_convergence(stages, ratio):
    # cfl_safety shrinks with dt_max so that dt_max / (cfl_safety * the
    # pure-diffusion bound) stays at ratio, above the edge of every method
    # before SSPRK(s,2) in METHODS and at most its own: every step is
    # taken at dt_max with SSPRK(s,2), and halving dt_max quarters the
    # error
    profile = initial_profile(2, 64, 3.0, 0.1)
    ev = profile_derivatives(profile)
    bound = profile.grid.dtheta**2 * (ev.H * ev.sinh * ev.v).min()**2 / 2
    T = 0.08
    ref, _ = run_flow(FlowState(t=0.0, profile=profile),
                      StepControl(t_end=T, dt_max=0.001, record_every=T))
    errors = []
    for h in (0.04, 0.02, 0.01):
        ctrl = StepControl(t_end=T, dt_max=h, cfl_safety=h / (ratio * bound),
                           record_every=T)
        final, _ = run_flow(FlowState(t=0.0, profile=profile), ctrl)
        assert final.step_count == round(T / h)
        assert final.evaluations == stages * final.step_count
        assert final.steps_by_method[stages - 2] == final.step_count
        errors.append(np.abs(final.profile.rho - ref.profile.rho).max())
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert 3.5 < errors[1] / errors[2] < 4.5


def test_three_stage_step_is_ssprk33():
    # Shu and Osher's three stages, written out by hand
    profile = initial_profile(2, 64, 3.0, 0.1)
    nxt = step(FlowState(t=0.0, profile=profile), StepControl(t_end=1.0))
    assert nxt.evaluations == 3
    assert nxt.steps_by_method == (1,) + (0,) * (len(METHODS) - 1)
    dt, rho = nxt.last_dt, profile.rho

    def F(y):
        ev = profile_derivatives(RadialProfile(n=2, rho=y))
        return ev.v / ev.H

    y1 = rho + dt * F(rho)
    y2 = 3 / 4 * rho + 1 / 4 * (y1 + dt * F(y1))
    y3 = rho / 3 + 2 / 3 * (y2 + dt * F(y2))
    assert np.abs(nxt.profile.rho - y3).max() <= 1e-14 * y3.max()


@pytest.mark.parametrize("r0,N,index", [(6.0, 256, 0), (3.0, 256, 1),
                                          (2.0, 1024, len(METHODS) - 1)])
def test_step_matches_fresh_kernel_shu_osher_loop(r0, N, index):
    # step's workspace and in-place stage updates change no bit: against
    # the Shu-Osher loop with one fresh kernel call per stage, for
    # SSPRK(3,3), SSPRK(3,2) and SSPRK(7,2); the profile stepped from
    # keeps its kernel_values and shares no memory with the new rho
    profile = initial_profile(2, N, r0, 0.1)
    ctrl = StepControl(t_end=40.0)
    kept = [field.copy() for field in profile.kernel_values]
    nxt = step(FlowState(t=0.0, profile=profile), ctrl)
    assert nxt.steps_by_method[index] == 1

    grid, rho = profile.grid, profile.rho
    ker = kernel(grid, rho, KernelWork(N))
    m = ker.K.min()
    base = ctrl.cfl_safety * grid.dtheta**2 * m * m / 2
    method = METHODS[index]
    dt = min(ctrl.dt_max, base * stage_edge(2, method))
    assert nxt.last_dt == dt
    y = rho.copy()
    for i, a in enumerate(method.a):
        if i:
            ker = kernel(grid, y, KernelWork(N))
        y = y + method.c * dt * ker.A / (ker.sinh * ker.K)
        if a:
            y = (1 - a) * y + a * rho
    assert nxt.profile.rho.tobytes() == y.tobytes()

    for field, copy in zip(profile.kernel_values, kept):
        assert field.tobytes() == copy.tobytes()
        assert not np.shares_memory(field, nxt.profile.rho)


def test_method_edges_keep_their_bits():
    # every edge bit for bit as bisected on the full Shu-Osher recursion,
    # before its a = 0 stages skipped their no-op passes
    assert method_edges(2) == (1.255994409089908, 2.2592406598851085,
                               2.9990967959165573, 4.167688406887464,
                               4.998494660016149, 6.124016581336036)
    assert method_edges(48) == (0.40329762920737267, 0.6889954498037696,
                                0.9668774735182524, 1.31327664188575,
                                1.6112486582715064, 1.9453380854101852)


def test_step_cfl_binds_at_small_radius():
    # at small rho the parabolic restriction is active and halving the
    # safety factor halves the step
    ctrl_a = StepControl(t_end=1.0, cfl_safety=0.4)
    ctrl_b = StepControl(t_end=1.0, cfl_safety=0.2)
    state = sphere_state(0.5, N=256)
    dt_a = step(state, ctrl_a).last_dt
    dt_b = step(state, ctrl_b).last_dt
    assert dt_a < ctrl_a.dt_max
    assert abs(dt_b - dt_a / 2) < 1e-15


@pytest.mark.parametrize("kind,radius,N", [
    ("bump", 3.0, 256), ("bump", 3.0, 512),
    ("tau_family", 4.0, 256), ("tau_family", 4.0, 512)])
@pytest.mark.parametrize("shift", [-0.01, 0.01])
@pytest.mark.parametrize("scale", [0.98, 1.02])
def test_step_dt_max_binds_on_reference_runs(kind, radius, N, shift, scale):
    # the reference runs (amplitude 0.1, t_end 40), with r0/tau shifted by
    # 0.01 and amplitude scaled by 0.98/1.02, step at dt_max, not at the
    # CFL bound; t = 0 has the tightest bound, which grows with rho
    profile = initial_profile(2, N, radius + shift, 0.1 * scale)
    ctrl = StepControl(t_end=40.0)
    assert step(FlowState(t=0.0, profile=profile), ctrl).last_dt == \
        ctrl.dt_max


def test_heun_edge_values():
    # Heun's n = 2 edge is the pure-diffusion bound; the pole drift only
    # tightens the edge as n grows
    assert stage_edge(2, HEUN) >= 0.999
    edges = [stage_edge(n, HEUN) for n in (2, 3, 5, 8, 12, 16, 32)]
    assert all(b <= a for a, b in zip(edges, edges[1:]))
    assert all(0 < k <= 1 for k in edges)


def test_two_stage_edge_is_heun_edge():
    for n, kappa in HEUN_EDGE.items():
        assert abs(stage_edge(n, HEUN) - kappa) <= 1e-9


def _first_unstable(R, mu, k_stop, dk=5e-5, rows=2048):
    """Smallest k on the grid dk, 2 dk, ... <= k_stop with |R(k mu)| > 1
    for some mu, or None."""
    for start in range(0, int(k_stop / dk) + 1, rows):
        k = (start + 1 + np.arange(rows)) * dk
        unstable = np.abs(R(k, mu)).max(axis=1) > 1 + 1e-12
        if unstable.any():
            return k[np.argmax(unstable)]
    return None


def _closed_form(method):
    """The stability polynomial of a METHODS entry, written out, at every
    z = k mu (rows k, columns mu)."""
    if method.name == "SSPRK(3,3)":
        def R(k, mu):  # 1 + z + z^2/2 + z^3/6 = 1 + z (1 + z (1/2 + z/6))
            z = np.outer(k, mu)
            p = z * (1 / 6)
            for coefficient in (1 / 2, 1.0):
                p += coefficient
                p *= z
            return p + 1
        return R
    s = len(method.a)
    assert method == ssprk2(s)

    def R(k, mu):  # 1/s + (s-1)/s (1 + z/(s-1))^s
        w = 1 + np.outer(k, mu / (s - 1))
        power = w.copy()
        for _ in range(s - 1):
            power *= w
        return 1 / s + (s - 1) / s * power
    return R


@pytest.mark.parametrize("n", [2, 8, 32, 64])
def test_stage_edge_matches_dense_scan(n):
    # the stable set of k is [0, edge]: a dense scan of the closed-form
    # stability polynomial from k = 0 first leaves it at the edge bisected
    # on the Shu-Osher recursion; conjugate eigenvalues give equal |R|,
    # so one of each pair is scanned.  Past four stages the scan would
    # take seconds, so only both sides of the edge are checked there.
    half_lam = _half_stencil_eigenvalues(n, 128)
    half_lam = half_lam[half_lam.imag >= 0]
    edges = [stage_edge(n, ssprk2(s)) for s in range(2, MAX_STAGES + 1)]
    assert all(b >= a for a, b in zip(edges, edges[1:]))
    for method in METHODS:
        edge, R = stage_edge(n, method), _closed_form(method)
        assert np.abs(R([edge], half_lam)).max() <= 1 + 1e-12
        assert np.abs(R([edge + 1e-4], half_lam)).max() > 1 + 1e-12
        if len(method.a) <= 4:
            first = _first_unstable(R, half_lam, edge + 1e-3)
            assert first is not None and abs(first - edge) <= 2e-4


@pytest.mark.parametrize("n,N", [(2, 32), (16, 32), (64, 32), (64, 1024)])
def test_heun_edge_holds_across_grid_sizes(n, N):
    # the edge from EDGE_NODES nodes, at the default safety 0.8, is still
    # stable on much coarser and much finer grids, for Heun and for every
    # method step takes
    safety = StepControl(t_end=1.0).cfl_safety
    for method in (HEUN,) + METHODS:
        assert safety * stage_edge(n, method) <= stage_edge(n, method, N)


@pytest.mark.parametrize("kind,r0", [("sphere", 2.0), ("bump", 3.0)])
def test_speed_jacobian_spectrum_sets_the_cfl_bound(kind, r0):
    # for n = 2 the linearized speed is real-spectrum diffusion whose most
    # negative eigenvalue, times the edge-1 CFL dt, is Heun's edge -2
    profile = initial_profile(2, 64, r0, 0.0 if kind == "sphere" else 0.1)
    grid = profile.grid

    def speed(rho):
        ev = profile_derivatives(RadialProfile(n=2, rho=rho))
        return ev.v / ev.H

    h = 1e-6
    jac = np.array([(speed(profile.rho + e) - speed(profile.rho - e)) / (2 * h)
                    for e in np.eye(64) * h]).T
    lam = np.linalg.eigvals(jac)
    assert np.abs(lam.imag).max() <= 1e-9 * np.abs(lam.real).max()
    ev = profile_derivatives(profile)
    m = (ev.H * ev.sinh * ev.v).min()
    assert -2.01 <= lam.real.min() * grid.dtheta**2 * m * m / 2 <= -1.99


@pytest.mark.parametrize("n,N,r0,amplitude,t_end", [
    (16, 1024, 0.5, 0.02, 1.0), (48, 4096, 0.2, 0.01, 0.5),
    (8, 4096, 0.3, 0.01, 0.1), (32, 4096, 0.3, 0.01, 0.1)])
def test_default_step_is_stable_near_the_pole(n, N, r0, amplitude, t_end):
    # without the edge factor these runs lose mean convexity at the first
    # node within a few steps (H = -227 at t = 0.0099 for n = 48); the
    # n = 32 case also loses it at node 0 near t = 0.01 under a two-stage
    # Runge-Kutta-Chebyshev step, whose stability polynomial is Heun's but
    # whose stages are not forward-Euler substeps
    profile = initial_profile(n, N, r0, amplitude)
    final, records = run_flow(FlowState(t=0.0, profile=profile),
                              StepControl(t_end=t_end, record_every=t_end))
    assert final.t == t_end
    assert min(r.H_min for r in records) > 0


@pytest.mark.parametrize("kwargs,message", [
    ({"t_end": math.nan}, "t_end must be finite, got nan"),
    ({"t_end": math.inf}, "t_end must be finite, got inf"),
    ({"t_end": 40.0, "dt_max": math.nan}, "dt_max must be finite, got nan"),
    ({"t_end": 40.0, "record_every": math.nan},
     "record_every must be finite, got nan"),
    ({"t_end": 40.0, "record_every": math.inf},
     "record_every must be finite, got inf"),
    ({"t_end": 40.0, "record_every": 1e-320},
     "t_end / record_every overflows: 40 / 9.99989e-321"),
    ({"t_end": 1e308}, "t_end / record_every overflows: 1e+308 / 0.5")],
    ids=["t_end-nan", "t_end-inf", "dt_max-nan", "record_every-nan",
         "record_every-inf", "record_every-1e-320", "t_end-1e308"])
def test_step_control_refuses_non_finite_values(kwargs, message):
    # a NaN t_end used to end run_flow at t = 0, an infinite one to
    # overflow in record_index, and a NaN dt_max to fail as a negative
    # trial stage; run_flow's own cadence check refused only <= 0, so a
    # NaN or infinite cadence ended at t = nan after 0 steps and 1e-320
    # raised OverflowError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StepControl(**kwargs)


@pytest.mark.parametrize("args,message", [
    ((1.0, math.nan, 0.01), "t_end must be finite and positive, got nan"),
    ((1.0, -5.0, 0.01), "t_end must be finite and positive, got -5.0"),
    ((1.0, math.inf, 0.01), "t_end must be finite and positive, got inf"),
    ((math.nan, 1.0, 0.01), "rho0 must be finite and positive, got nan"),
    ((1.0, 1.0, math.inf), "dt must be finite and positive, got inf"),
    ((0.0, 1.0, 0.01), "rho0 must be finite and positive, got 0.0")])
def test_sphere_ode_refuses_invalid_inputs(args, message):
    # a NaN or negative t_end returned ([0.], [rho0]), and an infinite one
    # never returned
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        integrate_sphere_ode(2, *args)


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(t_end=1.0, cfl_safety=0.0)
    with pytest.raises(ValueError,
                       match=r"^cfl_safety must be in \(0,1\], got 1.5$"):
        StepControl(t_end=1.0, cfl_safety=1.5)
    with pytest.raises(ValueError,
                       match=r"^t_end must be positive, got -1.0$"):
        StepControl(t_end=-1.0)
    for every in (0.0, -1.0):
        with pytest.raises(ValueError, match=(
                rf"^record_every must be positive, got {every}$")):
            StepControl(t_end=1.0, record_every=every)
    assert StepControl(t_end=1.0).record_every == 0.5
    with pytest.raises(StiffnessError):
        step(sphere_state(1.0), StepControl(t_end=1.0), dt_cap=1e-13)
    # the underflow check guards every method: want / base between the
    # edges of METHODS[i - 1] and METHODS[i] selects METHODS[i], and past
    # every edge the last; at a pure-diffusion bound of 1e-13 the same
    # ratio underflows
    state = sphere_state(1.0)
    ev = profile_derivatives(state.profile)
    bound = state.profile.grid.dtheta**2 * (ev.H * ev.sinh * ev.v).min()**2 / 2
    edges = [0.0] + [stage_edge(2, m) for m in METHODS] + [math.inf]
    for i in range(len(METHODS)):
        last = i == len(METHODS) - 1
        ratio = 2 * edges[i + 1] if last else (edges[i] + edges[i + 1]) / 2
        healthy = StepControl(t_end=1.0, cfl_safety=0.01 / bound)
        nxt = step(state, healthy, dt_cap=0.01 * ratio)
        assert nxt.steps_by_method[i] == 1
        assert nxt.last_dt == pytest.approx(
            0.01 * min(ratio, edges[i + 1]), rel=1e-12)
        stiff = StepControl(t_end=1.0, cfl_safety=1e-13 / bound)
        with pytest.raises(StiffnessError):
            step(state, stiff, dt_cap=1e-13 * ratio)


@pytest.mark.parametrize("fixture,steps,max_evaluations", [
    ("bump_run", 240, 720), ("bump_run_fine", 240, 800),
    ("tau_run", 240, 720), ("tau_run_fine", 240, 720),
    ("sphere_run", None, 880)])
def test_session_runs_step_economy(request, fixture, steps, max_evaluations):
    # the four reference runs step at dt_max = 1/6 throughout, 240 steps to
    # t = 40; the r0 = 2 sphere is CFL-limited on its first steps
    final = request.getfixturevalue(fixture).final
    if steps is None:
        assert 240 < final.step_count <= 250
    else:
        assert final.step_count == steps
    assert sum(final.steps_by_method) == final.step_count
    assert final.evaluations <= max_evaluations


def test_run_flow_matches_sphere_ode():
    final, records = run_flow(sphere_state(1.0, N=128),
                              StepControl(t_end=10.0))
    t_ode, rho_ode = integrate_sphere_ode(2, 1.0, 10.0, 0.005)
    ts = np.array([r.t for r in records])
    rho = np.array([r.rho_mean for r in records])
    assert np.max(np.abs(rho - np.interp(ts, t_ode, rho_ode))) < 1e-6
    assert final.t == 10.0


def test_run_flow_records_land_on_cadence():
    _, records = run_flow(sphere_state(1.0),
                          StepControl(t_end=3.0, record_every=0.5))
    assert [r.t for r in records] == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


def test_run_flow_from_a_later_start():
    # the records after state0 keep to the cadence and go forward in time
    state0 = FlowState(t=2.0, profile=initial_profile(2, 32, 3.0))
    final, records = run_flow(state0, StepControl(t_end=3.0, record_every=0.5))
    assert [r.t for r in records] == [2.0, 2.5, 3.0]
    assert final.t == 3.0


def smallest_record_index(every, t):
    """Smallest k >= 0 with k * every >= t, by scanning k upward."""
    k = 0
    while k * every < t:
        k += 1
    return k


@pytest.mark.parametrize("t,ceil_k,k", [
    (5.550000000000001, 112, 111),  # ceil(t / every) one too high
    (3.5000000000000004, 70, 71),   # ceil(t / every) one too low
])
def test_record_index_rounding_corrections(t, ceil_k, k):
    assert math.ceil(t / 0.05) == ceil_k
    assert record_index(0.05, t) == smallest_record_index(0.05, t) == k


def test_record_index_matches_scan():
    rng = np.random.default_rng(0)
    for _ in range(500):
        every = float(rng.uniform(0.01, 2.0))
        k = int(rng.integers(0, 300))
        for eps in (0.0, 1e-13, -1e-13, 2e-12, -2e-12,
                    float(rng.uniform(-every, every))):
            t = k * every + eps
            assert record_index(every, t) == smallest_record_index(every, t)


def test_run_flow_observer_sees_every_record():
    seen = []
    _, records = run_flow(sphere_state(1.0), StepControl(t_end=2.0),
                          observers=[lambda s, r: seen.append((s.t, r.t))])
    assert len(seen) == len(records)
    assert all(st == rt for st, rt in seen)


def test_gradient_monitor_never_grows(bump_run):
    sup = np.array([r.sup_grad_phi_sq for r in bump_run.records])
    assert np.all(sup <= sup[0] + 1e-6)


def test_mean_convexity_preserved(bump_run):
    assert min(r.H_min for r in bump_run.records) > 0


def test_volume_law(bump_run):
    t = np.array([r.t for r in bump_run.records])
    vol = np.array([r.volume for r in bump_run.records])
    assert np.max(np.abs(np.log(vol / vol[0]) - t)) < 1e-3


def test_q_rhs_vanishes_for_spheres():
    # for geodesic spheres the dissipation and comparison terms cancel
    # exactly: |A|^2 - 4(n+2) = (4n-1)/sinh^2 - 3/cosh^2 pointwise, also
    # at radii where forming |A|^2 first would lose that difference
    for n in (2, 3):
        for r0 in (0.7, 1.5, 3.0, 12.0, 17.0, 22.0):
            profile = sphere_state(r0, N=128, n=n).profile
            q_rhs = q_terms(profile, profile_derivatives(profile))[2]
            assert abs(q_rhs) <= 1e-12, (n, r0, q_rhs)


def test_q_rhs_keeps_its_digits_at_large_radius():
    # at rho = 12 the bump's dQ/dt is about -1.2e-11, where rounding
    # |A|^2 ~ 4(n+2) first would scatter it over +-2e-7; resolved, it is
    # grid-converged
    q_rhs = [q_terms(p, profile_derivatives(p))[2]
             for p in (initial_profile(2, N, 12.0, 0.1)
                       for N in (64, 256))]
    assert -1.3e-11 < q_rhs[1] < -1.1e-11
    assert abs(q_rhs[0] - q_rhs[1]) <= 1e-13


def test_q_rhs_matches_centered_difference(bump_run):
    recs = bump_run.records
    t = np.array([r.t for r in recs])
    Q = np.array([r.Q for r in recs])
    q_rhs = np.array([r.q_rhs for r in recs])
    dt = t[1] - t[0]
    mid = (t >= 10.0) & (t <= 30.0)
    dQdt = (Q[2:] - Q[:-2]) / (2 * dt)
    m = mid[1:-1]
    rel = np.abs(q_rhs[1:-1][m] - dQdt[m]) / np.maximum(np.abs(dQdt[m]), 1e-8)
    assert rel.max() < 1e-2


def test_diagnostics_record_fields():
    rec = diagnostics_record(sphere_state(2.0))
    assert rec.t == 0.0
    assert rec.rho_min == rec.rho_max == 2.0
    assert rec.volume > 0
    assert rec.Q == 0.0
    assert rec.drift == pytest.approx(2.0)
    assert abs(rec.H_min - hat_H(2, 2.0)) < 1e-12


def test_initial_profile_kinds():
    # one formula, rho = r0 + amplitude cos(2 theta); the config's kinds
    # map onto it: tau_family's r0 is tau, and a sphere has amplitude 0
    theta = cached_grid(2, 64).theta
    assert np.all(initial_profile(2, 64, 1.5).rho == 1.5)
    b = initial_profile(2, 64, 3.0, 0.1)
    assert b.rho.tobytes() == (3.0 + 0.1 * np.cos(2 * theta)).tobytes()
    base = ExperimentConfig(grid_points=64, initial_r0=3.0,
                            initial_amplitude=0.2, initial_tau=4.0)
    for kind, r0, amplitude in (("sphere", 3.0, 0.0), ("bump", 3.0, 0.2),
                                ("tau_family", 4.0, 0.2)):
        cfg = replace(base, initial_kind=kind)
        assert check_mean_convexity(cfg).rho.tobytes() == \
            initial_profile(2, 64, r0, amplitude).rho.tobytes()
    with pytest.raises(ValueError, match="rho must be positive"):
        initial_profile(2, 64, 0.1, 0.2)
