"""Inverse mean curvature flow of invariant radial graphs.

The coordinate-gauge evolution of the profile is d rho/dt = v/H per node
(the normal speed 1/H re-expressed on the radial graph).  Geodesic
spheres reduce to a scalar ODE, integrated with classical RK4 as an
independent oracle; general profiles use an explicit method of lines
stepped by SSPRK(s,2), the optimal second-order strong-stability-
preserving Runge-Kutta methods (s = 2 is Heun).  The step obeys a
parabolic CFL restriction derived from linearizing the speed in phi'',
scaled by the s-stage stability edge for the pole drift of n; s is the
fewest stages whose edge covers the step wanted.

Everything is deterministic: fixed evaluation order, no threading inside
a run.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import (RadialProfile, cached_grid, evaluate,
                       profile_derivatives, q_terms)

RECORD_SNAP = 1e-12  # absolute tolerance for landing on scheduled times
EDGE_NODES = 128     # grid of the operator whose spectrum sets stage_edge
MAX_STAGES = 4       # most stages one SSPRK(s,2) step may take


class FlowError(Exception):
    """Base class for integration failures."""


class NodeFailure(FlowError):
    """An integration failure located at one node of the grid."""

    cause = "failure"

    def __init__(self, t: float, node: int, theta: float, H: float):
        self.t = t
        self.node = node
        self.theta = theta
        self.H = H
        super().__init__(f"{self.cause} at t={t:.6g}: H={H:.6g} at node "
                         f"{node} (theta={theta:.6g})")


class MeanConvexityLost(NodeFailure):
    """H <= 0 appeared at some node; the 1/H speed is no longer defined."""

    cause = "mean convexity lost"


class NonFiniteState(NodeFailure):
    """H is NaN or infinite at some node, e.g. once sinh(rho) overflows."""

    cause = "non-finite state"


class StiffnessError(FlowError):
    """CFL-admissible step size collapsed below the underflow floor."""

    def __init__(self, t: float, dt: float):
        self.t = t
        self.dt = dt
        super().__init__(f"time step underflow at t={t:.6g}: dt={dt:.3e}")


@dataclass(frozen=True)
class FlowState:
    """Profile plus integration bookkeeping at one instant."""

    t: float
    profile: RadialProfile
    step_count: int = 0
    last_dt: float = 0.0
    evaluations: int = 0  # kernel evaluations made by stepping


@dataclass(frozen=True)
class StepControl:
    """Explicit-stepping parameters; cfl_safety in (0, 1].

    step takes dt = min(dt_max, cfl_safety times the stability edge of the
    fewest SSPRK(s,2) stages that reach dt_max, the time left to the next
    record).  The time error on the reference runs (bump r0=3 and
    tau_family tau=4, N <= 512, t_end=40) is far below their space error,
    so dt_max is as large as their accuracy allows without letting CFL
    bind.
    """

    t_end: float
    # The smallest t=0 stability bound over the reference runs, with
    # r0/tau shifted by up to 0.01 and amplitude scaled by 0.98-1.02, is
    # 0.0302 for Heun and 0.068 at s = 3 (bump r0=2.99, amplitude 0.102,
    # N=512, cfl_safety 0.8); the bound grows with rho, so those runs
    # need s = 3 only on their first steps (48 for bump r0=3, N=512) and
    # step by Heun after that.  0.05 = 0.5/10 divides the default record
    # cadence and keeps the time error small: the criterion-3 PDE-ODE gap
    # is 4.5e-8 and the r0 = 1 sphere's 2.2e-7, against a bound of 1e-6.
    dt_max: float = 0.05
    cfl_safety: float = 0.8

    def __post_init__(self):
        if not 0 < self.cfl_safety <= 1:
            raise ValueError(f"cfl_safety must be in (0,1], got {self.cfl_safety}")
        if self.t_end <= 0 or self.dt_max <= 0:
            raise ValueError("t_end and dt_max must be positive")


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Monitored quantities at one record time.

    drift is the orbit-weighted mean radius minus t/(2(2n+1)), the
    expected linear growth; q_rhs is the evolution-law right side for Q.
    """

    t: float
    rho_min: float
    rho_max: float
    rho_mean: float
    H_min: float
    H_max: float
    sup_grad_phi_sq: float
    volume: float
    Q: float
    q_rhs: float
    drift: float


def initial_profile(n: int, grid_size: int, kind: str, r0: float = 1.0,
                    amplitude: float = 0.0, tau: float = 4.0) -> RadialProfile:
    """Initial data catalog: sphere, bump, or the tau family.

    sphere:     rho = r0
    bump:       rho = r0 + amplitude * cos(2 theta)
    tau_family: rho = tau + amplitude * cos(2 theta)

    cos(2 theta) has vanishing derivative at both ends, so every preset is
    compatible with the even ghost extension.
    """
    theta = cached_grid(n, grid_size).theta
    if kind == "sphere":
        rho = np.full(grid_size, float(r0))
    elif kind == "bump":
        rho = r0 + amplitude * np.cos(2 * theta)
    elif kind == "tau_family":
        rho = tau + amplitude * np.cos(2 * theta)
    else:
        raise ValueError(f"unknown initial profile kind {kind!r}")
    return RadialProfile(n=n, theta=theta, rho=rho)


def sphere_ode_rhs(n: int, rho):
    """d rho/dt for a geodesic sphere under the flow.

    sinh rho cosh rho / ((4n-1) cosh^2 rho + 3 sinh^2 rho), which is
    exactly 1/hat_H(n, rho); tends to 1/(4n+2).
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("rho must be positive")
    sh, ch = np.sinh(rho), np.cosh(rho)
    val = sh * ch / ((4 * n - 1) * ch**2 + 3 * sh**2)
    return float(val) if val.ndim == 0 else val


def integrate_sphere_ode(n: int, rho0: float, t_end: float, dt: float):
    """Classical RK4 for the sphere ODE; returns (times, radii) arrays."""
    if rho0 <= 0 or dt <= 0:
        raise ValueError("rho0 and dt must be positive")
    times = [0.0]
    radii = [float(rho0)]
    t, rho = 0.0, float(rho0)
    while t < t_end - RECORD_SNAP:
        h = min(dt, t_end - t)
        k1 = sphere_ode_rhs(n, rho)
        k2 = sphere_ode_rhs(n, rho + 0.5 * h * k1)
        k3 = sphere_ode_rhs(n, rho + 0.5 * h * k2)
        k4 = sphere_ode_rhs(n, rho + h * k3)
        rho += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        t += h
        times.append(t)
        radii.append(rho)
    return np.array(times), np.array(radii)


def _require_mean_convex(H: np.ndarray, t: float, theta: np.ndarray):
    """Raise unless every H is positive and finite; non-finite H is
    reported first."""
    # min is NaN when any H is, so two reductions cover every case
    if H.min() > 0 and H.max() < math.inf:
        return
    finite = np.isfinite(H)
    if finite.all():
        k, error = int(np.argmin(H)), MeanConvexityLost
    else:
        k, error = int(np.argmin(finite)), NonFiniteState
    raise error(t, k, float(theta[k]), float(H[k]))


def pde_rhs(state: FlowState) -> np.ndarray:
    """Per-node speed v/H of the profile in the coordinate gauge."""
    profile = state.profile
    ev = profile_derivatives(profile)
    _require_mean_convex(ev.H, state.t, profile.theta)
    return ev.v / ev.H


@functools.lru_cache(maxsize=None)
def _half_stencil_eigenvalues(n: int, grid_size: int) -> np.ndarray:
    """Eigenvalues / 2 of the dimensionless stencil of stage_edge."""
    grid = cached_grid(n, grid_size)
    a = grid.w * grid.dtheta / 2
    stencil = (np.diag(np.full(grid_size, -2.0)) + np.diag(1 + a[:-1], 1)
               + np.diag(1 - a[1:], -1))
    stencil[0, 0] += 1 - a[0]
    stencil[-1, -1] += 1 + a[-1]
    return np.linalg.eigvals(stencil) / 2


@functools.lru_cache(maxsize=None)
def stage_edge(n: int, stages: int, grid_size: int = EDGE_NODES) -> float:
    """Stability edge of SSPRK(stages,2) for u'' + w u' as a multiple
    kappa of the pure-diffusion bound dtheta^2 / 2.

    The dimensionless stencil (1+a_k) u_{k+1} - 2 u_k + (1-a_k) u_{k-1},
    a_k = w_k dtheta / 2, with the even ghosts at both ends, has
    eigenvalues lam; kappa is the largest k with |R_s(z)| <= 1 at every
    z = k lam / 2, where R_s(z) = 1/s + (s-1)/s (1 + z/(s-1))^s.  R_2 is
    Heun's 1 + z + z^2/2: |R_2(s mu)|^2 - 1 is s times a cubic in s that
    increases for every mu, so each lam is stable on an interval of k and
    bisection finds the edge; a dense scan finds intervals for s = 3, 4
    as well.  For n = 2, lam fills [-4, 0] and kappa is 0.9997, 2.259 and
    2.999 for s = 2, 3, 4; the pole drift (4n-5) cot(theta) pushes lam off
    the real axis and past -4 as n grows (0.322, 0.689, 0.967 at n = 48).
    a_k depends on k, not on the grid size, near both ends, so one
    EDGE_NODES grid serves every N.
    """
    half_lam = _half_stencil_eigenvalues(n, grid_size)

    def stable(k):
        z = k * half_lam / (stages - 1)
        growth = 1 / stages + (stages - 1) / stages * (1 + z) ** stages
        # the slack absorbs the rounding of the constant mode's lam = 0
        return np.abs(growth).max() <= 1 + 1e-12

    lo, hi = 0.0, float(stages)  # each edge is below s
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


def step(state: FlowState, ctrl: StepControl,
         dt_cap: Optional[float] = None) -> FlowState:
    """One SSPRK(s,2) step with parabolic CFL control.

    base = cfl_safety * dtheta^2 / (2 max_k D_k) is the pure-diffusion
    CFL bound, with the effective diffusion D = 1/(F^2 v^4) =
    1/(H sinh(rho) v)^2, F = H sinh(rho)/v, obtained by differentiating
    the speed with respect to phi''.  The step wants min(dt_max, dt_cap)
    (dt_cap lands on record times exactly); s is the fewest stages in
    2..MAX_STAGES with base * stage_edge(n, s) >= that, and dt =
    min(wanted, base * stage_edge(n, s)).  The s evaluations are
    forward-Euler substeps of h = dt/(s-1) from rho, averaged as
    (rho + (s-1) y)/s; s = 2 is Heun.
    """
    profile = state.profile
    grid = profile.grid
    rho = profile.rho
    ev = evaluate(grid, rho)
    _require_mean_convex(ev.H, state.t, grid.theta)

    m = float((ev.H * ev.sinh * ev.v).min())
    base = ctrl.cfl_safety * grid.dtheta**2 * m * m / 2
    want = ctrl.dt_max if dt_cap is None else min(ctrl.dt_max, dt_cap)
    stages = next((s for s in range(2, MAX_STAGES)
                   if base * stage_edge(profile.n, s) >= want), MAX_STAGES)
    dt = min(want, base * stage_edge(profile.n, stages))
    if dt < 1e-12:
        raise StiffnessError(state.t, dt)

    h = dt / (stages - 1)
    y = rho + h * (ev.v / ev.H)
    for _ in range(stages - 1):
        if not (y > 0).all():
            raise ValueError(f"trial stage rho <= 0, min rho = {y.min():.6g}")
        ev = evaluate(grid, y)
        _require_mean_convex(ev.H, state.t, grid.theta)
        y += h * (ev.v / ev.H)

    new_profile = RadialProfile(n=profile.n, theta=profile.theta,
                                rho=(rho + (stages - 1) * y) / stages)
    return FlowState(t=state.t + dt, profile=new_profile,
                     step_count=state.step_count + 1, last_dt=dt,
                     evaluations=state.evaluations + stages)


def diagnostics_record(state: FlowState) -> DiagnosticsRecord:
    """Evaluate every monitored quantity at the current state."""
    profile = state.profile
    n = profile.n
    derivs = profile_derivatives(profile)
    vol, Q, q_rhs = q_terms(profile, derivs)
    rho_mean = float(profile.grid.weights @ profile.rho)
    return DiagnosticsRecord(
        t=state.t,
        rho_min=float(profile.rho.min()),
        rho_max=float(profile.rho.max()),
        rho_mean=rho_mean,
        H_min=float(derivs.H.min()),
        H_max=float(derivs.H.max()),
        sup_grad_phi_sq=float(np.max(derivs.phi_t**2)),
        volume=vol,
        Q=Q,
        q_rhs=q_rhs,
        drift=rho_mean - state.t / (2 * (2 * n + 1)),
    )


Observer = Callable[[FlowState, DiagnosticsRecord], None]


def run_flow(state0: FlowState, ctrl: StepControl,
             observers: Sequence[Observer] = (),
             record_every: float = 0.5):
    """Integrate to ctrl.t_end, recording diagnostics every record_every.

    Record times are hit exactly (dt is clamped, then the time stamp is
    snapped to kill the last-ulp residue), so separate runs are
    comparable record by record.  Observers receive (state, record) at
    every record time, including t=0 and t_end.

    Returns (final state, list of DiagnosticsRecord).
    """
    if record_every <= 0:
        raise ValueError("record_every must be positive")
    state = state0
    records = []

    def emit(s):
        rec = diagnostics_record(s)
        records.append(rec)
        for obs in observers:
            obs(s, rec)

    emit(state)
    k = 1
    target = min(k * record_every, ctrl.t_end)
    while state.t < ctrl.t_end - RECORD_SNAP:
        state = step(state, ctrl, dt_cap=target - state.t)
        if state.t >= target - RECORD_SNAP:
            state = replace(state, t=target)
            emit(state)
            k += 1
            target = min(k * record_every, ctrl.t_end)
    return state, records
