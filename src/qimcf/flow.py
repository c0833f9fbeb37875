"""Inverse mean curvature flow of invariant radial graphs.

The coordinate-gauge evolution of the profile is d rho/dt = v/H per node
(the normal speed 1/H re-expressed on the radial graph).  Geodesic
spheres reduce to a scalar ODE, integrated with classical RK4 as an
independent oracle; general profiles use an explicit method of lines
stepped by strong-stability-preserving Runge-Kutta methods in Shu-Osher
form, every stage a forward-Euler substep: the third-order SSPRK(3,3)
wherever its stability edge covers the step wanted, else the optimal
second-order SSPRK(s,2) with the fewest stages that does.  The step
obeys a parabolic CFL restriction derived from linearizing the speed in
phi'', scaled by each method's stability edge for the pole drift of n.

Everything is deterministic: fixed evaluation order, no threading inside
a run.
"""

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import (RadialProfile, cached_grid, hat_H, kernel,
                       profile_derivatives, q_terms)

RECORD_SNAP = 1e-12  # absolute tolerance for landing on scheduled times
EDGE_NODES = 128     # grid of the operator whose spectrum sets stage_edge
MAX_STAGES = 7       # most stages one SSPRK(s,2) step may take


class Method(NamedTuple):
    """A Runge-Kutta method in Shu-Osher form: stage i sets
    y <- a_i rho + (1 - a_i) (y + c dt F(y)), from y = rho."""

    name: str
    c: float
    a: Tuple[float, ...]


def ssprk2(stages: int) -> Method:
    """SSPRK(stages,2): stages forward-Euler substeps of dt/(stages-1)
    from rho, the last averaged with rho by weight 1/stages; stages = 2
    is Heun."""
    return Method(f"SSPRK({stages},2)", 1 / (stages - 1),
                  (0.0,) * (stages - 1) + (1 / stages,))


# step takes the first method whose edge covers the step it wants, else
# the last (Shu & Osher, J. Comput. Phys. 77 (1988); Ketcheson, SIAM J.
# Sci. Comput. 30 (2008))
METHODS = ((Method("SSPRK(3,3)", 1.0, (0.0, 3 / 4, 1 / 3)),)
           + tuple(ssprk2(s) for s in range(3, MAX_STAGES + 1)))


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


class NonFiniteRecord(FlowError):
    """A record's volume, Q or q_rhs is NaN or infinite, e.g. on overflow,
    or its volume underflowed below the smallest normal float."""

    def __init__(self, t: float, quantity: str, value: float):
        self.t, self.quantity = t, quantity
        cause = "underflowed" if math.isfinite(value) else "non-finite"
        super().__init__(f"{cause} {quantity}={value!r} at t={t:.6g}")


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
    # steps taken by each method of METHODS, in its order
    steps_by_method: Tuple[int, ...] = (0,) * len(METHODS)

    @property
    def evaluations(self) -> int:
        """Kernel evaluations made by stepping, one per stage."""
        return sum(count * len(method.a)
                   for method, count in zip(METHODS, self.steps_by_method))


@dataclass(frozen=True)
class StepControl:
    """Explicit-stepping parameters; cfl_safety in (0, 1].

    step takes dt = min(dt_max, cfl_safety times the stability edge of the
    first method of METHODS that reaches dt_max times dtheta^2 min(K)^2/2,
    K = H sinh(rho) v, the time left to the next record).  The time error
    on the reference runs (bump r0=3 and tau_family tau=4, N <= 512,
    t_end=40) is far below their space error, so dt_max is as large as
    their accuracy allows without letting CFL bind.
    """

    t_end: float
    # The smallest t=0 stability bound over the reference runs, with
    # r0/tau shifted by up to 0.01 and amplitude scaled by 0.98-1.02, is
    # 0.038 for SSPRK(3,3), 0.151 for SSPRK(6,2) and 0.185 for SSPRK(7,2)
    # (bump r0=2.99, amplitude 0.102, N=512, cfl_safety 0.8); the bound
    # grows with rho, so those runs take SSPRK(s,2) only on their first
    # steps and SSPRK(3,3) after that.  1/6 = 0.5/3 divides the default
    # record cadence and keeps the time error small: the criterion-3
    # PDE-ODE gap is 1.4e-7 and the r0 = 1 sphere's 6.6e-7, against a
    # bound of 1e-6 (a cap of 0.25 put that sphere at 9.7e-7).
    dt_max: float = 1 / 6
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
    return RadialProfile(n=n, rho=rho)


def sphere_ode_rhs(n: int, rho):
    """d rho/dt = 1/hat_H(n, rho) for a geodesic sphere under the flow;
    tends to 1/(4n+2).  The kernel reads hat_K, not hat_H, so the RK4
    oracle below stays independent of it."""
    return 1 / hat_H(n, rho)


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


def _checked_min_K(ker, t: float, theta: np.ndarray) -> float:
    """min K = min H v sinh(rho), after _require_mean_convex's checks."""
    # the ufunc reductions skip ndarray.min's Python wrapper, ~1 us a call
    m = np.minimum.reduce(ker.K)
    if not (m > 0 and np.maximum.reduce(ker.K) < math.inf):
        _require_mean_convex(ker.K / np.sqrt(ker.A), t, theta)
    return float(m)


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
def stage_edge(n: int, method: Method, grid_size: int = EDGE_NODES) -> float:
    """Stability edge of method for u'' + w u' as a multiple kappa of the
    pure-diffusion bound dtheta^2 / 2.

    The dimensionless stencil (1+a_k) u_{k+1} - 2 u_k + (1-a_k) u_{k-1},
    a_k = w_k dtheta / 2, with the even ghosts at both ends, has
    eigenvalues lam; kappa is the largest k with |R(z)| <= 1 at every
    z = k lam / 2.  The stability function R comes from the Shu-Osher
    table as r_i = a_i + (1 - a_i) r_{i-1} (1 + c z), r_{-1} = 1: it is
    1 + z + z^2/2 + z^3/6 for SSPRK(3,3) and 1/s + (s-1)/s (1 +
    z/(s-1))^s for SSPRK(s,2).  For Heun |R(s mu)|^2 - 1 is s times a
    cubic in s that increases for every mu, so each lam is stable on an
    interval of k and bisection finds the edge; a dense scan finds
    intervals for SSPRK(3,3) and s = 3, 4 as well.  For n = 2, lam fills
    [-4, 0] and kappa is 1.256 for SSPRK(3,3), 0.9997 for Heun and 2.259
    to 6.124 for SSPRK(s,2), s = 3..7; the pole drift (4n-5) cot(theta)
    pushes lam off the real axis and past -4 as n grows (SSPRK(3,3)
    0.403, Heun 0.322 at n = 48).  a_k depends on k, not on the grid size,
    near both ends, so one EDGE_NODES grid serves every N.
    """
    half_lam = _half_stencil_eigenvalues(n, grid_size)

    def stable(k):
        growth = 1.0
        for a in method.a:
            growth = a + (1 - a) * growth * (1 + method.c * k * half_lam)
        # the slack absorbs the rounding of the constant mode's lam = 0
        return np.abs(growth).max() <= 1 + 1e-12

    lo, hi = 0.0, float(len(method.a))  # each edge is below the stage count
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


def step(state: FlowState, ctrl: StepControl,
         dt_cap: Optional[float] = None) -> FlowState:
    """One strong-stability-preserving Runge-Kutta step with parabolic CFL
    control.

    base = cfl_safety * dtheta^2 / (2 max_k D_k) is the pure-diffusion
    CFL bound, with the effective diffusion D = 1/(F^2 v^4) = 1/K^2,
    F = H sinh(rho)/v, K = H sinh(rho) v, obtained by differentiating the
    speed with respect to phi''.  The step wants min(dt_max, dt_cap)
    (dt_cap lands on record times exactly); it takes the first method of
    METHODS with base * stage_edge(n, method) >= that, else the last, and
    dt = min(wanted, base * stage_edge(n, method)).  Each stage is one
    kernel call and one forward-Euler substep of c dt at the speed v/H =
    A/(sinh(rho) K), averaged with rho by the method's weight a_i.
    """
    profile = state.profile
    grid = profile.grid
    rho = profile.rho
    ker = kernel(grid, rho)
    m = _checked_min_K(ker, state.t, grid.theta)
    base = ctrl.cfl_safety * grid.dtheta**2 * m * m / 2
    want = ctrl.dt_max if dt_cap is None else min(ctrl.dt_max, dt_cap)
    for index, method in enumerate(METHODS):  # the last if none covers
        bound = base * stage_edge(profile.n, method)
        if bound >= want:
            break
    dt = min(want, bound)
    if dt < 1e-12:
        raise StiffnessError(state.t, dt)

    h = method.c * dt
    y = rho.copy()
    for i, a in enumerate(method.a):
        if i:
            if not np.minimum.reduce(y) > 0:
                raise ValueError(
                    f"trial stage rho <= 0, min rho = {y.min():.6g}")
            ker = kernel(grid, y)
            _checked_min_K(ker, state.t, grid.theta)
        y += h * ker.A / (ker.sinh * ker.K)
        if a:
            y *= 1 - a
            y += a * rho

    steps_by_method = list(state.steps_by_method)
    steps_by_method[index] += 1
    new_profile = RadialProfile(n=profile.n, rho=y)
    return FlowState(t=state.t + dt, profile=new_profile,
                     step_count=state.step_count + 1, last_dt=dt,
                     steps_by_method=tuple(steps_by_method))


def diagnostics_record(state: FlowState) -> DiagnosticsRecord:
    """Evaluate every monitored quantity at the current state; raises
    NonFiniteRecord rather than record a non-finite volume, Q or q_rhs,
    or a volume that underflowed to 0.0 or to a subnormal, which has lost
    its digits."""
    profile = state.profile
    n = profile.n
    derivs = profile_derivatives(profile)
    vol, Q, q_rhs = q_terms(profile, derivs)
    if not sys.float_info.min <= vol < math.inf:
        raise NonFiniteRecord(state.t, "volume", vol)
    for name, value in (("Q", Q), ("q_rhs", q_rhs)):
        if not math.isfinite(value):
            raise NonFiniteRecord(state.t, name, value)
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
