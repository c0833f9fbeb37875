"""Inverse mean curvature flow of invariant radial graphs.

The coordinate-gauge evolution of the profile is d rho/dt = v/H per node
(the normal speed 1/H re-expressed on the radial graph).  Geodesic
spheres reduce to a scalar ODE, integrated with classical RK4 as an
independent oracle; general profiles use an explicit method of lines
(Heun) with a parabolic CFL restriction derived from linearizing the
speed in phi'', scaled by Heun's stability edge for the pole drift of n.

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
EDGE_NODES = 128     # grid of the operator whose spectrum sets heun_edge


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


@dataclass(frozen=True)
class StepControl:
    """Explicit-stepping parameters; cfl_safety in (0, 1].

    step takes dt = min(dt_max, cfl_safety times Heun's stability edge,
    the time left to the next record).  Heun's time error on the
    reference runs (bump r0=3 and tau_family tau=4, N <= 512, t_end=40)
    is far below their space error, so dt_max is as large as those runs
    allow without letting CFL bind.
    """

    t_end: float
    # The smallest t=0 stability bound over the reference runs, with
    # r0/tau shifted by up to 0.01 and amplitude scaled by 0.98-1.02, is
    # 0.0302 (bump r0=2.99, amplitude 0.102, N=512, cfl_safety 0.8,
    # heun_edge(2) = 0.9997); 0.025 = 0.5/20 is the largest round value
    # below it that divides the default record cadence.  The bound grows
    # with rho, so t=0 is the tightest.
    dt_max: float = 0.025
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
def heun_edge(n: int, grid_size: int = EDGE_NODES) -> float:
    """Heun's stability edge for u'' + w u' as a fraction kappa <= 1 of
    the pure-diffusion bound dtheta^2 / 2.

    The dimensionless stencil (1+a_k) u_{k+1} - 2 u_k + (1-a_k) u_{k-1},
    a_k = w_k dtheta / 2, with the even ghosts at both ends, has
    eigenvalues lam; kappa is the largest k <= 1 with |1 + z + z^2/2| <= 1
    at every z = k lam / 2.  |R(s mu)|^2 - 1 is s times a cubic in s that
    increases for every mu, so each lam is stable on an interval of k and
    bisection finds the edge.  For n = 2, lam fills [-4, 0] and kappa is
    0.9997; the pole drift (4n-5) cot(theta) pushes lam off the real axis
    and past -4 as n grows (kappa(32) = 0.44).  a_k depends on k, not on
    the grid size, near both ends, so one EDGE_NODES grid serves every N.
    """
    grid = cached_grid(n, grid_size)
    a = grid.w * grid.dtheta / 2
    stencil = (np.diag(np.full(grid_size, -2.0)) + np.diag(1 + a[:-1], 1)
               + np.diag(1 - a[1:], -1))
    stencil[0, 0] += 1 - a[0]
    stencil[-1, -1] += 1 + a[-1]
    half_lam = np.linalg.eigvals(stencil) / 2

    def stable(k):
        z = k * half_lam
        # the slack absorbs the rounding of the constant mode's lam = 0
        return np.abs(1 + z + z * z / 2).max() <= 1 + 1e-12

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


def step(state: FlowState, ctrl: StepControl,
         dt_cap: Optional[float] = None) -> FlowState:
    """One Heun (explicit trapezoidal) step with parabolic CFL control.

    dt = min(dt_max, cfl_safety * heun_edge(n) * dtheta^2 / (2 max_k
    D_k)) with the effective diffusion D = 1/(F^2 v^4) = 1/(H sinh(rho)
    v)^2, F = H sinh(rho)/v, obtained by differentiating the speed with
    respect to phi''.  dt_cap, when given, additionally clamps dt (used
    to land on record times exactly).
    """
    profile = state.profile
    grid = profile.grid
    rho = profile.rho
    ev1 = evaluate(grid, rho)
    _require_mean_convex(ev1.H, state.t, grid.theta)

    m = float((ev1.H * ev1.sinh * ev1.v).min())
    dt = min(ctrl.dt_max, ctrl.cfl_safety * heun_edge(profile.n)
             * grid.dtheta**2 * m * m / 2)
    if dt_cap is not None:
        dt = min(dt, dt_cap)
    if dt < 1e-12:
        raise StiffnessError(state.t, dt)

    k1 = ev1.v / ev1.H
    trial = rho + dt * k1
    if not (trial > 0).all():
        raise ValueError(f"trial stage rho <= 0, min rho = {trial.min():.6g}")
    ev2 = evaluate(grid, trial)
    _require_mean_convex(ev2.H, state.t, grid.theta)
    k2 = ev2.v / ev2.H

    new_profile = RadialProfile(n=profile.n, theta=profile.theta,
                                rho=rho + 0.5 * dt * (k1 + k2))
    return FlowState(t=state.t + dt, profile=new_profile,
                     step_count=state.step_count + 1, last_dt=dt)


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
