"""Geometry of S3-invariant star-shaped radial graphs in HH^n.

A hypersurface is the radial graph of rho(theta) over the geodesic sphere,
where theta in (0, pi/2) is the lifted Fubini-Study distance on the
quaternionic projective base; invariance under the Hopf S^3 action makes
the orbit space one-dimensional.

All pointwise quantities (v, mean curvature, shape operator, |A|^2, area
density) and the orbit-weighted integrals (volume, Q functional) live
here.  Profiles sit on a uniform cell-centered grid so that the cot/tan
singular endpoints are never sampled; derivative stencils use even ghost
reflection, which encodes the Neumann symmetry of the invariant profiles.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def make_theta_grid(grid_size: int):
    """Cell-centered nodes theta_k = (k + 1/2) * (pi/2)/N and the spacing."""
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    dtheta = (np.pi / 2) / grid_size
    theta = (np.arange(grid_size) + 0.5) * dtheta
    return theta, dtheta


@dataclass(frozen=True)
class RadialProfile:
    """Radial graph rho(theta) on the cell-centered grid of N nodes, n >= 2.

    theta must be that grid: the kernel evaluates on cached_grid(n, N).
    """

    n: int
    theta: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        theta = np.asarray(self.theta, dtype=float)
        rho = np.asarray(self.rho, dtype=float)
        if theta.ndim != 1 or theta.shape != rho.shape:
            raise ValueError("theta and rho must be 1d arrays of equal length")
        grid = cached_grid(self.n, theta.size)
        if theta is not grid.theta and not np.array_equal(theta, grid.theta):
            raise ValueError(
                f"theta must be the cell-centered grid of {theta.size} nodes")
        if not (rho > 0).all():
            raise ValueError(
                f"rho must be positive everywhere, min rho = {rho.min():.6g}")
        object.__setattr__(self, "theta", grid.theta)
        object.__setattr__(self, "rho", rho)

    @property
    def grid_size(self) -> int:
        return self.theta.size

    @property
    def dtheta(self) -> float:
        return self.grid.dtheta

    @property
    def grid(self) -> "Grid":
        return cached_grid(self.n, self.grid_size)


class ProfileDerivatives(NamedTuple):
    """Per-node output of evaluate; a NamedTuple as each step builds two."""

    phi_t: np.ndarray
    phi_tt: np.ndarray
    v: np.ndarray
    w: np.ndarray
    sinh: np.ndarray
    cosh: np.ndarray
    hat_H: np.ndarray
    H: np.ndarray


def hat_H(n: int, rho):
    """Mean curvature of the geodesic sphere of radius rho.

    (4n-1) coth(rho) + 3 tanh(rho); tends to 4n+2 (the horosphere value)
    as rho grows and blows up like (4n-1)/rho at the origin.  Apart from
    the kernel, it is the oracle of the sphere tests in test_flow.py.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("rho must be positive")
    val = (4 * n - 1) / np.tanh(rho) + 3 * np.tanh(rho)
    return float(val) if val.ndim == 0 else val


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
    """The cell-centered grid and every per-node constant of (n, N).

    Built once by cached_grid; read-only arrays, as every caller shares them.
    """

    n: int
    theta: np.ndarray
    dtheta: float
    w: np.ndarray
    weights: np.ndarray
    volume: float


@functools.lru_cache(maxsize=64)
def cached_grid(n: int, grid_size: int) -> Grid:
    """The shared Grid for (n, grid_size), validated on first use."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    theta, dtheta = make_theta_grid(grid_size)
    w = reduced_weight(n, theta)
    weights = orbit_weights(theta, n)
    for arr in (theta, w, weights):
        arr.setflags(write=False)
    return Grid(n=n, theta=theta, dtheta=dtheta, w=w, weights=weights,
                volume=sphere_volume(n))


def evaluate(grid: Grid, rho: np.ndarray) -> ProfileDerivatives:
    """The evaluation kernel: derivatives and mean curvature at every node.

    rho', rho'' are second-order central differences whose ghost value
    across each end mirrors the end value (the even, Neumann-symmetric
    extension).  Then phi' = rho'/sinh rho, phi'' = (rho'' - cosh rho
    rho' phi')/sinh rho, v = sqrt(1 + phi'^2), hat_H = (4n-1)/tanh rho
    + 3 tanh rho and H = [hat_H - (phi''/v^2 + w phi')/sinh rho] / v.
    rho is not checked: callers own the positivity and finiteness checks.
    """
    ext = np.empty(rho.size + 2)
    ext[1:-1] = rho
    ext[0], ext[-1] = rho[0], rho[-1]
    d1 = (ext[2:] - ext[:-2]) / (2 * grid.dtheta)
    d2 = (ext[2:] - 2 * rho + ext[:-2]) / grid.dtheta**2
    sh = np.sinh(rho)
    ch = np.cosh(rho)
    phi_t = d1 / sh
    phi_tt = (d2 - ch * d1 * phi_t) / sh
    v2 = 1 + phi_t * phi_t
    v = np.sqrt(v2)
    tanh = sh / ch
    hatH = (4 * grid.n - 1) / tanh + 3 * tanh
    H = (hatH - (phi_tt / v2 + grid.w * phi_t) / sh) / v
    return ProfileDerivatives(phi_t, phi_tt, v, grid.w, sh, ch, hatH, H)


def profile_derivatives(profile: RadialProfile) -> ProfileDerivatives:
    """The kernel's evaluation of a profile on its cached grid."""
    return evaluate(profile.grid, profile.rho)


def mean_curvature_profile(profile: RadialProfile,
                           derivs: ProfileDerivatives) -> np.ndarray:
    """Kernel mean curvature at every node; kept for test_acceptance.py."""
    return derivs.H


def mean_curvature_reduced(profile: RadialProfile, derivs: ProfileDerivatives,
                           k: int) -> float:
    """Kernel mean curvature at node k; kept for test_acceptance.py."""
    return float(derivs.H[k])


def general_mean_curvature(n: int, rho: float, v: float,
                           hat_hessian_contraction: float,
                           vertical_gradient_sq: float) -> float:
    """Mean curvature of a general (not necessarily invariant) radial graph.

    H = -(contraction)/(v sinh rho) + hat_H/v
        + sinh rho * (vertical gradient squared) / (v^3 cosh rho),

    where the contraction is phi_ij sigma~^{ji} of the deformed-metric
    Hessian and the last term collects the squared Hopf-direction
    derivatives of phi.  Invariant profiles have that term equal to zero
    and reduce to mean_curvature_reduced.  Not a pipeline path: the
    oracle of test_mean_curvature_independent_evaluation (np.gradient).
    """
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    sh, ch = math.sinh(rho), math.cosh(rho)
    return (-hat_hessian_contraction / (v * sh) + hat_H(n, rho) / v
            + sh * vertical_gradient_sq / (v**3 * ch))


def shape_operator_adapted(profile: RadialProfile, derivs: ProfileDerivatives,
                           k: int) -> np.ndarray:
    """Shape operator h_i^k at node k in the adapted orthonormal frame.

    Frame order: xi_1, xi_2, xi_3 (Hopf vertical), e_theta, J_1 e_theta,
    J_2 e_theta, J_3 e_theta, then the remaining 4n-8 horizontal
    directions.  Nonzero entries:

      vertical diagonal          2 coth(2 rho) / v
      (e_theta, e_theta)         -phi''/(v^3 sinh rho) + coth(rho)/v
      J_i e_theta diagonal       -2 phi' cot(2 theta)/(v sinh rho) + coth/v
      remaining horizontal       -phi' cot(theta)/(v sinh rho) + coth/v
      (xi_i, J_i e_theta)        cosh^2(rho) phi' / (v sinh rho)
      (J_i e_theta, xi_i)        phi' / (v sinh rho)

    The mixed tensor is not symmetric because the vertical and horizontal
    blocks of the induced metric carry different conformal factors; its
    trace equals the mean curvature and tr(S^2) gives |A|^2.
    """
    n = profile.n
    dim = 4 * n - 1
    rho = float(profile.rho[k])
    theta = float(profile.theta[k])
    phi_t = float(derivs.phi_t[k])
    phi_tt = float(derivs.phi_tt[k])
    v = float(derivs.v[k])
    sh, ch = math.sinh(rho), math.cosh(rho)
    coth = ch / sh

    S = np.zeros((dim, dim))
    mu = (sh / ch + ch / sh) / v  # 2 coth(2 rho) / v
    for i in range(3):
        S[i, i] = mu
        S[i, 4 + i] = ch**2 * phi_t / (v * sh)
        S[4 + i, i] = phi_t / (v * sh)
        S[4 + i, 4 + i] = -2 * phi_t / math.tan(2 * theta) / (v * sh) + coth / v
    S[3, 3] = -phi_tt / (v**3 * sh) + coth / v
    for j in range(7, dim):
        S[j, j] = -phi_t / math.tan(theta) / (v * sh) + coth / v
    return S


def _a_norm_sq_identity(n, theta, d: ProfileDerivatives, H):
    """|A|^2 via the closed identity in H - hat_H; vectorized.

    The contraction phi_ij phi_kh sigma~ sigma~ for invariant profiles is
    (phi'')^2/v^4 + 3 (2 phi' cot 2theta)^2 + (4n-8)(phi' cot theta)^2
    + 6 (phi')^2, the last term from the vertical/horizontal couplings.
    """
    sh, ch, v, phi_t, hatH = d.sinh, d.cosh, d.v, d.phi_t, d.hat_H
    v2 = v**2
    om = phi_t**2
    contraction = (d.phi_tt**2 / v2**2 + 3 * (2 * phi_t / np.tan(2 * theta))**2
                   + (4 * n - 8) * (phi_t / np.tan(theta))**2 + 6 * om)
    return (4 * (n + 2) + contraction / (v2 * sh**2) + 6 * om / v2
            + (2 * ch / (v * sh)) * (H - hatH + hatH * om / (v * (v + 1)))
            + (4 * n - 1) / (v2 * sh**2) - 3 / (v2 * ch**2)
            - 4 * (n + 2) * om / v2)


def A_norm_sq(profile: RadialProfile, derivs: ProfileDerivatives,
              k: int) -> float:
    """Squared norm of the second fundamental form at node k.

    Computed two independent ways: tr(S^2) of the adapted-frame shape
    operator, and the closed identity expressing |A|^2 - 4(n+2) through
    H - hat_H and the invariant Hessian contraction.  The two must agree
    to 1e-8 (a mismatch means a formula transcription bug); returns the
    trace value.
    """
    S = shape_operator_adapted(profile, derivs, k)
    traced = float(np.einsum("ij,ji->", S, S))
    node = ProfileDerivatives._make(field[k] for field in derivs)
    closed = float(_a_norm_sq_identity(profile.n, profile.theta[k], node,
                                       node.H))
    if abs(traced - closed) > 1e-8:
        raise ValueError(
            f"|A|^2 cross-check failed at node {k}: "
            f"trace route {traced!r} vs identity route {closed!r}")
    return traced


def a_norm_sq_profile(profile: RadialProfile, derivs: ProfileDerivatives,
                      H: np.ndarray) -> np.ndarray:
    """Vectorized |A|^2 over all nodes (closed-identity route).

    The per-node A_norm_sq cross-checks this expression against the
    shape-operator trace; flow diagnostics use this form directly.
    """
    return _a_norm_sq_identity(profile.n, profile.theta, derivs, H)


def area_element(n: int, rho, v):
    """Orbit-space area density d mu / d sigma = v sinh^{4n-1} rho cosh^3 rho.

    The cosh^3 carries the Berger stretching of the three Hopf directions
    at radius rho.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("rho must be positive")
    val = v * np.sinh(rho) ** (4 * n - 1) * np.cosh(rho) ** 3
    return float(val) if np.ndim(val) == 0 else val


def sphere_volume(n: int) -> float:
    """Volume of the round unit sphere S^{4n-1}: 2 pi^{2n} / (2n-1)!."""
    return 2 * math.pi ** (2 * n) / math.factorial(2 * n - 1)


def orbit_weights(theta: np.ndarray, n: int) -> np.ndarray:
    """Normalized midpoint weights of the orbital measure.

    J(theta) = sin^{4n-5} theta cos^3 theta is the relative volume of the
    S^3 x S^{4n-8}-type orbit through theta; normalizing by sum(J) pins
    the total measure to 1 regardless of grid size.
    """
    J = np.sin(theta) ** (4 * n - 5) * np.cos(theta) ** 3
    return J / J.sum()


def orbit_integral(values, n: int) -> float:
    """Integral over S^{4n-1} of an invariant function given per node.

    The grid is inferred from len(values): cell-centered on (0, pi/2).
    Midpoint rule with the orbital weight J, normalized so that the
    constant 1 integrates to Vol(S^{4n-1}) exactly.
    """
    values = np.asarray(values, dtype=float)
    grid = cached_grid(n, values.size)
    return grid.volume * float(grid.weights @ values)


def q_terms(profile: RadialProfile, derivs: ProfileDerivatives):
    """Volume |M|, Q(M) and the flow's dQ/dt from one kernel evaluation.

    Q(M) = |M|^{-1+1/(2n+1)} * integral of (H - hat_H) d mu is zero
    exactly on geodesic spheres: the scale-invariant deviation from
    sphericity whose flow limit detects non-constant qc-scalar curvature.
    """
    n = profile.n
    H = derivs.H
    dens = area_element(n, profile.rho, derivs.v)
    vol = orbit_integral(dens, n)
    pref = vol ** (-1 + 1 / (2 * n + 1))
    Q = pref * orbit_integral((H - derivs.hat_H) * dens, n)

    # dQ/dt: the scaling term, the |A|^2 dissipation against speed 1/H,
    # and the sphere-comparison term.  The last integrand advances with
    # the material radial rate <nu/H, d_rho> = 1/(vH): the hat_H'(rho)
    # factor (4n-1)/sinh^2 - 3/cosh^2 measures radius change of the
    # comparison sphere, not of the graph coordinate, so the v of the
    # coordinate gauge divides out.
    sh, ch = derivs.sinh, derivs.cosh
    A2 = _a_norm_sq_identity(n, profile.theta, derivs, H)
    q_rhs = (Q / (2 * n + 1)
             - pref * orbit_integral((A2 - 4 * (n + 2)) / H * dens, n)
             + pref * orbit_integral(
                 ((4 * n - 1) / sh**2 - 3 / ch**2) / (derivs.v * H) * dens, n))
    return vol, Q, q_rhs


def Q_functional(profile: RadialProfile) -> float:
    """Q(M) from q_terms; kept for test_acceptance.py."""
    return q_terms(profile, profile_derivatives(profile))[1]
