"""limit_Q before the integration by parts: an oracle for the identity.

The package evaluates the limiting Q as a sum of squares,

    limit_Q = 2n * V^{-1+1/m} * I[e^{4nf} |f'|^2],  V = I[e^{2mf}], m = 2n+1.

Before one integration by parts it reads, with z = e^{-f},

    limit_Q = V^{-1+1/m} * I[e^{2mf}(z Lap z - m |z'|^2)],

Lap z = z'' + w z' the invariant round Laplacian; the boundary terms of
the parts vanish at both poles.  This form needs a second difference and
its integrand is O(a) pointwise for an O(a) factor, so at small
amplitude it loses its digits to cancellation and can come out negative.
On a settled factor of moderate amplitude the two forms agree to the
stencil's accuracy, which is what the tests check.
"""

import numpy as np

from qimcf.geometry import cached_grid
from qimcf.limits import ConformalFactor


def _derivatives4(values: np.ndarray, dtheta: float):
    """Fourth-order central first and second differences with two even
    ghost layers; the first is the package's limits._derivative4."""
    ext = np.empty(values.size + 4)
    ext[2:-2] = values
    ext[1], ext[0] = values[0], values[1]
    ext[-2], ext[-1] = values[-1], values[-2]
    d1 = (-ext[4:] + 8 * ext[3:-1] - 8 * ext[1:-3] + ext[:-4]) / (12 * dtheta)
    d2 = (-ext[4:] + 16 * ext[3:-1] - 30 * ext[2:-2] + 16 * ext[1:-3]
          - ext[:-4]) / (12 * dtheta**2)
    return d1, d2


def limit_q_lap_form(factor: ConformalFactor) -> float:
    """V^{-1+1/m} I[e^{2mf}(z Lap z - m |z'|^2)], z = e^{-f}, evaluated
    at f - max f in log scale: with L = log(weights) + 2mf, top = max L
    and E = e^{L-top}, it is Vol^{1/m} e^{top/m} (sum E)^{-1+1/m}
    sum E (z Lap z - m |z'|^2)."""
    n = factor.n
    grid = cached_grid(n, factor.f.size)
    m = 2 * n + 1
    f = factor.f - factor.f.max()
    z = np.exp(-f)
    zp, zpp = _derivatives4(z, grid.dtheta)
    integrand = z * (zpp + grid.w * zp) - m * zp**2
    with np.errstate(divide="ignore"):  # a weight that underflowed to 0
        log_terms = np.log(grid.weights) + 2 * m * f
    top = log_terms.max()
    terms = np.exp(log_terms - top)
    return float(grid.volume ** (1 / m) * np.exp(top / m)
                 * terms.sum() ** (-1 + 1 / m) * (terms @ integrand))
