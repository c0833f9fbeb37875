"""Geometry of S3-invariant star-shaped radial graphs in HH^n.

A hypersurface is the radial graph of rho(theta) over the geodesic sphere,
where theta in (0, pi/2) is the lifted Fubini-Study distance on the
quaternionic projective base; invariance under the Hopf S^3 action makes
the orbit space one-dimensional.

All pointwise quantities (v, mean curvature, area density) and the
orbit-weighted integrals (volume, Q functional) live here.  Profiles sit
on a uniform cell-centered grid so that the cot/tan singular endpoints
are never sampled; derivative stencils use even ghost reflection, which
encodes the Neumann symmetry of the invariant profiles.
A profile evaluates the kernel once, on first use, and keeps the result,
so a record and the step taken from it share one evaluation; those
arrays belong to the profile.  Every other evaluation writes into a
caller's KernelWork: step owns one per step, and the arrays kernel
returns into it are that step's scratch.  dQ/dt is
integrated as one integrand built from |A|^2 - 4(n+2), never from |A|^2
itself, so it keeps its digits at large radius and is exactly 0 on
geodesic spheres.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class RadialProfile:
    """Radial graph rho(theta) on the cell-centered grid of N = rho.size
    nodes, n >= 2; theta is that grid's, read from cached_grid(n, N).

    kernel_values is evaluated on first use and kept, so rho must not be
    changed in place after it has been read.
    """

    n: int
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.ndim != 1:
            raise ValueError("rho must be a 1d array")
        cached_grid(self.n, rho.size)  # refuses n < 2 and N < 2
        if not (rho > 0).all():
            raise ValueError(
                f"rho must be positive everywhere, min rho = {rho.min():.6g}")
        object.__setattr__(self, "rho", rho)

    @property
    def grid(self) -> "Grid":
        return cached_grid(self.n, self.rho.size)

    @property
    def theta(self) -> np.ndarray:
        return self.grid.theta

    @functools.cached_property
    def kernel_values(self) -> "KernelValues":
        """kernel(grid, rho) into a fresh KernelWork, read by
        profile_derivatives and by the first stage of a step from here."""
        return kernel(self.grid, self.rho, KernelWork(self.rho.size))


class ProfileDerivatives(NamedTuple):
    """Per-node output of profile_derivatives."""

    phi_t: np.ndarray
    phi_tt: np.ndarray
    v: np.ndarray
    sinh: np.ndarray
    cosh: np.ndarray
    hat_H: np.ndarray
    H: np.ndarray


def reduced_weight(n: int, theta):
    """Drift w(theta) = (4n-5) cot(theta) - 3 tan(theta).

    This is d/dtheta of log(sin^{4n-5} theta cos^3 theta) and turns the
    round Laplacian of an invariant function into u'' + w u'.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0) or np.any(theta >= np.pi / 2):
        raise ValueError("theta must lie strictly inside (0, pi/2)")
    val = (4 * n - 5) / np.tan(theta) - 3 * np.tan(theta)
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class Grid:
    """The cell-centered grid of (n, N), its per-node constants, quadrature.

    Built once by cached_grid; read-only arrays, as every caller shares them.
    """

    n: int
    theta: np.ndarray
    dtheta: float
    w: np.ndarray
    # 12 cot^2(2 theta) + (4n-8) cot^2(theta) + 6, the coefficient of
    # (phi')^2 in the invariant Hessian contraction of |A|^2
    angular: np.ndarray
    weights: np.ndarray
    volume: float

    def integral(self, values: np.ndarray) -> float:
        """Integral over S^{4n-1} of an invariant function given at the
        nodes, by the orbital weights: the constant 1 gives volume."""
        return self.volume * float(self.weights @ values)


@functools.lru_cache(maxsize=64)
def cached_grid(n: int, grid_size: int) -> Grid:
    """The shared Grid for (n, grid_size), validated on first use.

    The nodes are cell-centered, theta_k = (k + 1/2) * (pi/2)/N.  The
    weights are the normalized midpoint weights of the orbital measure:
    J(theta) = sin^{4n-5} theta cos^3 theta is the relative volume of the
    S^3 x S^{4n-8}-type orbit through theta, and normalizing by sum(J)
    pins the total measure to 1 regardless of grid size.  volume is that
    of the round unit sphere S^{4n-1}, 2 pi^{2n} / (2n-1)!: the float
    2 pi^{2n} is divided as an exact ratio of integers, which Python
    rounds once, as (2n-1)! overflows a float from n = 86 on.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    dtheta = (np.pi / 2) / grid_size
    theta = (np.arange(grid_size) + 0.5) * dtheta
    w = reduced_weight(n, theta)
    angular = (12 / np.tan(2 * theta)**2 + (4 * n - 8) / np.tan(theta)**2
               + 6)
    J = np.sin(theta) ** (4 * n - 5) * np.cos(theta) ** 3
    weights = J / J.sum()
    for arr in (theta, w, angular, weights):
        arr.setflags(write=False)
    num, den = (2 * math.pi ** (2 * n)).as_integer_ratio()
    return Grid(n=n, theta=theta, dtheta=dtheta, w=w, angular=angular,
                weights=weights,
                volume=num / (den * math.factorial(2 * n - 1)))


class KernelValues(NamedTuple):
    """Per-node output of kernel, with s = sinh rho and c = cosh rho."""

    rho_t: np.ndarray
    rho_tt: np.ndarray
    sinh: np.ndarray
    cosh: np.ndarray
    A: np.ndarray      # (v s)^2 = s^2 + rho'^2
    hat_K: np.ndarray  # s hat_H = (4n-1) c + 3 s^2/c = (4n+2) c - 3/c
    K: np.ndarray      # H v s


class KernelWork:
    """Every array kernel writes for one grid size: the zero-padded
    difference d, the rows of values (a KernelValues of views) and two
    scratch rows: kernel uses the first, step's stage updates both.

    A later kernel call with the same workspace overwrites values.
    """

    __slots__ = ("d", "d_inner", "d_hi", "d_lo", "values", "scratch")

    def __init__(self, size: int):
        self.d = d = np.zeros(size + 1)  # d[0] and d[-1] stay 0
        self.d_inner = d[1:-1]
        self.d_hi = d[1:]
        self.d_lo = d[:-1]
        rows = np.empty((9, size))
        # indexing each row is faster than iterating over the block
        self.values = KernelValues(rows[0], rows[1], rows[2], rows[3],
                                   rows[4], rows[5], rows[6])
        self.scratch = rows[7], rows[8]


def kernel(grid: Grid, rho: np.ndarray, work: KernelWork) -> KernelValues:
    """The evaluation kernel, all that step and profile_derivatives read.

    d is the first difference of rho with a zero at each end, so d[1:] +
    d[:-1] = 2 dtheta rho' and d[1:] - d[:-1] = dtheta^2 rho'' are central
    differences over the even (Neumann-symmetric) ghost extension.  With
    phi' = rho'/s and v = sqrt(1 + phi'^2), H = [hat_H - (phi''/v^2 +
    w phi')/s]/v times v s is K = hat_K - (rho'' s - c rho'^2)/A - w rho'/s.
    The speed v/H is A/(s K) and the CFL quantity is K: no square root.
    Every pass writes into the caller's work (each ufunc's third argument
    is its out) and returns work.values, allocating nothing.  The ufuncs
    and their operand order are those of the plain formulas, so every
    value is bit for bit the same.  rho is not checked: callers own the
    positivity and finiteness checks.
    """
    if work.d.size != rho.size + 1:
        raise ValueError(f"workspace for {work.d.size - 1} nodes, "
                         f"rho has {rho.size}")
    rho_t, rho_tt, s, c, A, hat_K, K = work.values
    tmp = work.scratch[0]
    np.subtract(rho[1:], rho[:-1], work.d_inner)
    np.add(work.d_hi, work.d_lo, rho_t)
    np.multiply(rho_t, 0.5 / grid.dtheta, rho_t)
    np.subtract(work.d_hi, work.d_lo, rho_tt)
    np.multiply(rho_tt, grid.dtheta**-2, rho_tt)
    np.sinh(rho, s)
    np.cosh(rho, c)
    np.multiply(rho_t, rho_t, tmp)  # rho'^2
    np.multiply(s, s, A)
    np.add(A, tmp, A)
    # hat_K = (4n+2) c - 3/c, with K as scratch
    np.multiply(4 * grid.n + 2, c, K)
    np.divide(3, c, hat_K)
    np.subtract(K, hat_K, hat_K)
    # K = hat_K - (rho'' s - c rho'^2)/A - w rho'/s
    np.multiply(rho_tt, s, K)
    np.multiply(c, tmp, tmp)
    np.subtract(K, tmp, K)
    np.divide(K, A, K)
    np.subtract(hat_K, K, K)
    np.multiply(grid.w, rho_t, tmp)
    np.divide(tmp, s, tmp)
    np.subtract(K, tmp, K)
    return work.values


def profile_derivatives(profile: RadialProfile) -> ProfileDerivatives:
    """Derivatives and mean curvature at every node, from the profile's
    kernel_values.

    phi' = rho'/s, phi'' = (rho'' - c rho' phi')/s, v = sqrt(A)/s,
    hat_H = hat_K/s and H = K/sqrt(A).  On a sphere sqrt(A) is exactly s,
    so H - hat_H is exactly 0.
    """
    k = profile.kernel_values
    root = np.sqrt(k.A)
    phi_t = k.rho_t / k.sinh
    phi_tt = (k.rho_tt - k.cosh * k.rho_t * phi_t) / k.sinh
    return ProfileDerivatives(phi_t, phi_tt, root / k.sinh, k.sinh, k.cosh,
                              k.hat_K / k.sinh, k.K / root)


def _sphere_excess(n: int, sh, ch):
    """|A|^2 - 4(n+2) = (4n-1)/sinh^2 - 3/cosh^2 on the geodesic sphere
    of radius rho, which is -hat_H'(rho)."""
    return (4 * n - 1) / sh**2 - 3 / ch**2


def _a_norm_sq_excess(n: int, angular, d: ProfileDerivatives, H, sphere):
    """|A|^2 - 4(n+2) via the closed identity in H - hat_H; vectorized.

    angular is grid.angular at the nodes of d and sphere is
    _sphere_excess(n, sinh, cosh) at the same nodes; on a sphere (phi' = 0,
    H = hat_H) the result is sphere exactly.
    """
    sh, ch, v, hatH = d.sinh, d.cosh, d.v, d.hat_H
    v2 = v**2
    om = d.phi_t**2
    contraction = d.phi_tt**2 / v2**2 + angular * om
    return (contraction / (v2 * sh**2) + 6 * om / v2
            + (2 * ch / (v * sh)) * (H - hatH + hatH * om / (v * (v + 1)))
            + sphere / v2 - 4 * (n + 2) * om / v2)


def q_terms(profile: RadialProfile, derivs: ProfileDerivatives):
    """Volume |M|, Q(M) and the flow's dQ/dt from one kernel evaluation.

    Q(M) = |M|^{-1+1/(2n+1)} * integral of (H - hat_H) d mu is zero
    exactly on geodesic spheres: the scale-invariant deviation from
    sphericity whose flow limit detects non-constant qc-scalar curvature.
    """
    n = profile.n
    grid = profile.grid
    H = derivs.H
    sh, ch = derivs.sinh, derivs.cosh
    # an overflowing density or an underflowing volume (large n) gives a
    # non-finite volume, Q or q_rhs, not a warning or an exception, and
    # the caller refuses the record by its values
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # d mu / d sigma = v sinh^{4n-1} rho cosh^3 rho; the cosh^3 carries
        # the Berger stretching of the three Hopf directions at radius rho
        dens = derivs.v * sh ** (4 * n - 1) * ch ** 3
        vol = grid.integral(dens)
        pref = float(np.float64(vol) ** (-1 + 1 / (2 * n + 1)))
        Q = pref * grid.integral((H - derivs.hat_H) * dens)

        # dQ/dt: the scaling term, then, under one integral, the
        # sphere-comparison term less the |A|^2 dissipation against speed
        # 1/H.  The comparison term advances with the material radial rate
        # <nu/H, d_rho> = 1/(vH): the -hat_H'(rho) factor (4n-1)/sinh^2 -
        # 3/cosh^2 measures radius change of the comparison sphere, not of
        # the graph coordinate, so the v of the coordinate gauge divides
        # out.  The dissipation enters as |A|^2 - 4(n+2), which the
        # comparison term cancels pointwise on spheres; forming |A|^2
        # first would leave that difference a rounding error of 4(n+2)
        # times the unit roundoff, 1.8e-15 at n = 2: 6% of it at rho = 17
        # and more than all of it from rho ~ 18.5.
        sphere = _sphere_excess(n, sh, ch)
        excess = _a_norm_sq_excess(n, grid.angular, derivs, H, sphere)
        q_rhs = Q / (2 * n + 1) + pref * grid.integral(
            (sphere / derivs.v - excess) / H * dens)
    return vol, Q, q_rhs

