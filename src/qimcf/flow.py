"""Inverse mean curvature flow of invariant radial graphs.

The coordinate-gauge evolution of the profile is d rho/dt = v/H per node
(the normal speed 1/H re-expressed on the radial graph), an explicit
method of lines stepped by strong-stability-preserving Runge-Kutta
methods in Shu-Osher form, every stage a forward-Euler substep: the
third-order SSPRK(3,3) wherever its stability edge covers the step
wanted, else the optimal second-order SSPRK(s,2) with the fewest stages
that does.  The step obeys a parabolic CFL restriction derived from
linearizing the speed in phi'', scaled by each method's stability edge
for the pole drift of n.  The edges are a table shipped in
stage_edges.py and generated offline by tests/stage_edge_oracle.py, so
no run computes an eigenvalue and the step sizes do not depend on the
machine's LAPACK build.  StepControl checks the time axis, checked_min_K
every profile; each failure class carries the exit code of its run.

Everything is deterministic: fixed evaluation order, no threading inside
a run.
"""

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import (KernelWork, RadialProfile, cached_grid, kernel,
                       profile_derivatives, q_terms)

RECORD_SNAP = 1e-12  # absolute tolerance for landing on scheduled times
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
    """Base class for integration failures; a classified one has exit_code."""


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

    cause, exit_code = "mean convexity lost", 2


class NonFiniteState(NodeFailure):
    """H is NaN or infinite at some node, e.g. once sinh(rho) overflows."""

    cause, exit_code = "non-finite state", 4


class NonFiniteRecord(FlowError):
    """A record's volume, Q or q_rhs is NaN or infinite, e.g. on overflow,
    or its volume underflowed below the smallest normal float."""

    exit_code = 4

    def __init__(self, t: float, quantity: str, value: float):
        self.t, self.quantity = t, quantity
        cause = "underflowed" if math.isfinite(value) else "non-finite"
        super().__init__(f"{cause} {quantity}={value!r} at t={t:.6g}")


class StiffnessError(FlowError):
    """CFL-admissible step size collapsed below the underflow floor."""

    exit_code = 3

    def __init__(self, t: float, dt: float):
        self.t = t
        self.dt = dt
        super().__init__(f"time step underflow at t={t:.6g}: dt={dt:.3e}")


@dataclass(frozen=True)
class FlowState:
    """Profile plus integration bookkeeping at one instant."""

    t: float
    profile: RadialProfile
    last_dt: float = 0.0
    # steps taken by each method of METHODS, in its order
    steps_by_method: Tuple[int, ...] = (0,) * len(METHODS)

    @property
    def step_count(self) -> int:
        return sum(self.steps_by_method)

    @property
    def evaluations(self) -> int:
        """Kernel evaluations made by stepping, one per stage."""
        return sum(count * len(method.a)
                   for method, count in zip(METHODS, self.steps_by_method))


@dataclass(frozen=True)
class StepControl:
    """Explicit-stepping parameters and run_flow's record cadence, checked
    here alone (ExperimentConfig builds one): t_end, dt_max, record_every
    finite and positive, t_end / record_every finite, cfl_safety in (0, 1].

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
    record_every: float = 0.5

    def __post_init__(self):
        for name in ("t_end", "dt_max", "record_every"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                need = "positive" if value <= 0 else "finite"
                raise ValueError(f"{name} must be {need}, got {value}")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError(
                f"cfl_safety must be in (0,1], got {self.cfl_safety}")
        if not math.isfinite(self.t_end / self.record_every):
            raise ValueError(f"t_end / record_every overflows: "
                             f"{self.t_end:g} / {self.record_every:g}")


class DiagnosticsRecord(NamedTuple):
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


def initial_profile(n: int, grid_size: int, r0: float,
                    amplitude: float = 0.0) -> RadialProfile:
    """The one formula of initial data, rho = r0 + amplitude cos(2 theta);
    cos(2 theta) has vanishing derivative at both ends, as the even ghost
    extension needs."""
    theta = cached_grid(n, grid_size).theta
    return RadialProfile(n=n, rho=r0 + amplitude * np.cos(2 * theta))


def checked_min_K(ker, t: float, theta: np.ndarray) -> float:
    """min K = min H v sinh(rho) of kernel values ker when every K is
    positive and finite, else NonFiniteState at the first node where
    H = K/sqrt(A) is not finite, else MeanConvexityLost at the smallest H:
    the one node guard of every stage and of the config's initial profile."""
    # the ufunc reductions skip ndarray.min's Python wrapper, ~1 us a call;
    # min is NaN when any K is, so two reductions cover every case
    m = np.minimum.reduce(ker.K)
    if m > 0 and np.maximum.reduce(ker.K) < math.inf:
        return float(m)
    H = ker.K / np.sqrt(ker.A)
    finite = np.isfinite(H)
    if finite.all():
        k, error = int(np.argmin(H)), MeanConvexityLost
    else:
        k, error = int(np.argmin(finite)), NonFiniteState
    raise error(t, k, float(theta[k]), float(H[k]))


@functools.lru_cache(maxsize=None)
def _edge_table() -> Dict[int, Tuple[float, ...]]:
    """The shipped rows of stage_edges.STAGE_EDGES by n; a row whose
    width is not len(METHODS) is stale and refused."""
    # imported here, not at the top: import qimcf and parse_config never
    # read the table
    from .stage_edges import STAGE_EDGES
    # a string: without a .pyc, a dict literal's 756 floats cost 4x its RSS
    table = {}
    for line in STAGE_EDGES.splitlines():
        n, *edges = line.split()
        if len(edges) != len(METHODS):
            raise ValueError(f"stage edge row for n={n} has {len(edges)} "
                             f"edges, METHODS has {len(METHODS)}; "
                             f"regenerate stage_edges.py")
        table[int(n)] = tuple(map(float, edges))
    return table


def method_edges(n: int) -> Tuple[float, ...]:
    """The stability edge kappa(n) of each method of METHODS, in its
    order, as a multiple of the pure-diffusion bound dtheta^2 / 2: the
    shipped table stage_edges.py, which tests/stage_edge_oracle.py
    bisects on the spectrum of the pole stencil and which covers every
    n the config admits; ValueError for any other n."""
    table = _edge_table()
    if n not in table:
        raise ValueError(f"no stability edges for n={n}: the table covers "
                         f"n = {min(table)}..{max(table)}")
    return table[n]


def step(state: FlowState, ctrl: StepControl,
         dt_cap: Optional[float] = None) -> FlowState:
    """One strong-stability-preserving Runge-Kutta step with parabolic CFL
    control.

    base = cfl_safety * dtheta^2 / (2 max_k D_k) is the pure-diffusion
    CFL bound, with the effective diffusion D = 1/(F^2 v^4) = 1/K^2,
    F = H sinh(rho)/v, K = H sinh(rho) v, obtained by differentiating the
    speed with respect to phi''.  The step wants min(dt_max, dt_cap)
    (dt_cap lands on record times exactly); it takes the first method of
    METHODS whose edge in method_edges(n) gives base * edge >= that, else
    the last, and dt = min(wanted, base * edge).  The edges are read from
    the shipped table, so dt is the same whatever LAPACK the machine
    has.  Each stage is one kernel evaluation and one forward-Euler
    substep of c dt at the speed v/H = A/(sinh(rho) K), averaged with rho
    by the method's weight a_i; the first stage reads the profile's
    kernel_values, which a record made at this state has already
    evaluated, and the later stages evaluate into one KernelWork that the
    step owns and drops.  A stage mixes rho and y + h A/(sinh(rho) K),
    K > 0, so it is never <= 0; a NaN one is named, with its node, by the
    next evaluation's checked_min_K.
    """
    profile = state.profile
    grid = profile.grid
    rho = profile.rho
    ker = profile.kernel_values
    m = checked_min_K(ker, state.t, grid.theta)
    base = ctrl.cfl_safety * grid.dtheta**2 * m * m / 2
    want = ctrl.dt_max if dt_cap is None else min(ctrl.dt_max, dt_cap)
    edges = method_edges(profile.n)
    for index, (method, edge) in enumerate(zip(METHODS, edges)):
        bound = base * edge  # the last method if none covers want
        if bound >= want:
            break
    dt = min(want, bound)
    if dt < 1e-12:
        raise StiffnessError(state.t, dt)

    h = method.c * dt
    y = rho.copy()
    # stages 1 and up evaluate into work; every stage update goes through
    # its scratch rows
    work = KernelWork(rho.size)
    inc, den = work.scratch
    for i, a in enumerate(method.a):
        if i:
            ker = kernel(grid, y, work)
            checked_min_K(ker, state.t, grid.theta)
        np.multiply(h, ker.A, inc)
        np.multiply(ker.sinh, ker.K, den)
        np.divide(inc, den, inc)
        y += inc
        if a:
            y *= 1 - a
            np.multiply(a, rho, inc)
            y += inc

    steps_by_method = list(state.steps_by_method)
    steps_by_method[index] += 1
    new_profile = RadialProfile(n=profile.n, rho=y)
    return FlowState(t=state.t + dt, profile=new_profile, last_dt=dt,
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


def record_index(every: float, t: float) -> int:
    """Smallest k >= 0 with k * every >= t, in run_flow's arithmetic."""
    # ceil of the rounded quotient can miss that k by one either way
    k = max(0.0, float(np.ceil(t / every)))
    if k > 0 and (k - 1) * every >= t:
        k -= 1
    elif k * every < t:
        k += 1
    return int(k)


def last_record(every: float, t_end: float) -> Tuple[int, float]:
    """Index and time of run_flow's last record: t_end, or k * every when
    that falls within RECORD_SNAP below t_end (record k >= 1 is at
    min(k * every, t_end))."""
    k = record_index(every, t_end - RECORD_SNAP)
    return k, min(k * every, t_end)


def run_flow(state0: FlowState, ctrl: StepControl,
             observers: Sequence[Observer] = ()):
    """Integrate to ctrl.t_end, recording diagnostics every ctrl.record_every.

    Records are made at state0 and at the times last_record gives that
    lie beyond it.  They are hit exactly (dt is clamped, then the time
    stamp is snapped to kill the last-ulp residue), so separate runs are
    comparable record by record; observers receive (state, record) at
    each.

    Returns (final state, list of DiagnosticsRecord).
    """
    every = ctrl.record_every
    state = state0
    records = []

    def emit(s):
        rec = diagnostics_record(s)
        records.append(rec)
        for obs in observers:
            obs(s, rec)

    emit(state)
    first = record_index(every, state.t + RECORD_SNAP)
    for k in range(first, last_record(every, ctrl.t_end)[0] + 1):
        target = min(k * every, ctrl.t_end)
        while state.t < target - RECORD_SNAP:
            state = step(state, ctrl, dt_cap=target - state.t)
        state = replace(state, t=target)
        emit(state)
    return state, records
