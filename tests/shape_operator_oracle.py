"""The shape operator of a radial graph, entry by entry: an oracle for the
kernel's H and for the closed |A|^2 identity of q_terms.

shape_operator_adapted assembles h_i^k at one node in the adapted frame
from phi', phi'' and v alone; its trace must be the kernel's H and
tr(S^2) the closed identity |A|^2 = 4(n+2) + _a_norm_sq_excess that dQ/dt
integrates.  general_mean_curvature is the mean curvature of a general,
not necessarily invariant, radial graph, fed by whatever discretization
the test chooses.  Neither reads the kernel's formulas: the kernel forms
K = H v sinh(rho) in one expression with hat_K = (4n+2) cosh - 3/cosh,
and these build H from the frame's diagonal coth terms and couplings, or
from hat_H written out by the sphere-ODE oracle.
"""

import math

import numpy as np

from sphere_ode_oracle import hat_H


def general_mean_curvature(n: int, rho: float, v: float,
                           hat_hessian_contraction: float,
                           vertical_gradient_sq: float) -> float:
    """Mean curvature of a general radial graph,

    H = -(contraction)/(v sinh rho) + hat_H/v
        + sinh rho * (vertical gradient squared) / (v^3 cosh rho),

    where the contraction is phi_ij sigma~^{ji} of the deformed-metric
    Hessian and the last term collects the squared Hopf-direction
    derivatives of phi.  Invariant profiles have that term equal to zero
    and reduce to the H of profile_derivatives.
    """
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    sh, ch = math.sinh(rho), math.cosh(rho)
    return (-hat_hessian_contraction / (v * sh) + hat_H(n, rho) / v
            + sh * vertical_gradient_sq / (v**3 * ch))


def shape_operator_adapted(profile, derivs, k: int) -> np.ndarray:
    """Shape operator h_i^k at node k of profile, whose profile_derivatives
    are derivs, in the adapted orthonormal frame.

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
