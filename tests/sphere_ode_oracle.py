"""The geodesic-sphere ODE, integrated by classical RK4: an oracle for the
flow on spheres.

A geodesic sphere of radius rho stays one under the flow, moving at the
normal speed 1/hat_H(n, rho), where

    hat_H(n, rho) = (4n-1) coth(rho) + 3 tanh(rho)

is its mean curvature; the rate tends to 1/(4n+2), the horosphere's.
The tests compare the PDE solver's sphere runs against this scalar ODE.
Nothing here reads the solver: the kernel forms sinh(rho) hat_H as hat_K
= (4n+2) cosh(rho) - 3/cosh(rho), and hat_H is written out below from
coth and tanh, so a transcription error in either shows as a gap.
"""

import math

import numpy as np


def hat_H(n: int, rho):
    """Mean curvature of the geodesic sphere of radius rho, (4n-1)
    coth(rho) + 3 tanh(rho); blows up like (4n-1)/rho at the origin."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("rho must be positive")
    val = (4 * n - 1) / np.tanh(rho) + 3 * np.tanh(rho)
    return float(val) if val.ndim == 0 else val


def integrate_sphere_ode(n: int, rho0: float, t_end: float, dt: float):
    """Classical RK4 for d rho/dt = 1/hat_H(n, rho); returns (times,
    radii) arrays.  The last step is shortened to land on t_end; a step
    within 1e-12 of it is not taken."""
    for name, value in (("rho0", rho0), ("t_end", t_end), ("dt", dt)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value}")

    def rhs(rho):
        return 1 / hat_H(n, rho)

    times = [0.0]
    radii = [float(rho0)]
    t, rho = 0.0, float(rho0)
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        t += h
        times.append(t)
        radii.append(rho)
    return np.array(times), np.array(radii)
