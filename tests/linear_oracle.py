"""Closed-form limit of the flow at small amplitude: an oracle for f.

Write x = cos 2 theta.  The invariant Laplacian u'' + w u' is, in x,

    L = 4 (1 - x^2) d^2/dx^2 - (8n x + 8n - 16) d/dx,

whose eigenfunctions are the Jacobi polynomials P_k = P_k^{(2n-3, 1)}(x)
with eigenvalue -lambda_k, lambda_k = 4k(k + 2n - 1).  The orbit measure
sin^{4n-5} theta cos^3 theta d theta is their weight (1 - x)^{2n-3}
(1 + x) dx, so every P_k with k >= 1 has orbit mean zero.

Linearize the flow about the geodesic sphere rho_s(t) of initial radius
r0, with rho = rho_s + eps(t) P_k.  Then

    eps' = eps [(1/hat_H)'(rho_s) - lambda_k / hat_K(rho_s)^2],

hat_K = sinh(rho) hat_H.  Since rho_s' = 1/hat_H, both terms integrate in
closed form, and the start r0 + a P_k has the limit

    f = a R_k (P_k - mean) + O(a^2),
    R_k(n, r0) = hat_H(r0)/(4n+2)
                 * (1 + (4n-1) / ((4n+2) sinh^2 r0))^(-lambda_k / (2(4n-1))).

The limiting Q of a factor f = a (P_k - mean) is, to order a^2,

    limit_Q = 2n a^2 lambda_k Vol^{1/m} mean((P_k - mean)^2),  m = 2n+1,

since V = I[e^{2mf}] = Vol + O(a) and I[f'^2] = I[f (-Lap f)] = lambda_k
I[f^2]; its next term is odd in a.  The limit of the flow from r0 +/- a
P_k has the same even part with a R_k for a.

Nothing here is computed by the solver: hat_H is written out, P_k comes
from the three-term recurrence of the Jacobi polynomials, mean(P_k^2)
from their norm, and Vol = 2 pi^{2n} / (2n-1)! is that of S^{4n-1}.
"""

import math

import numpy as np


def jacobi(k: int, alpha: float, beta: float, x) -> np.ndarray:
    """P_k^{(alpha, beta)}(x) in the standard normalization, P_k(1) =
    binomial(k + alpha, k), by the three-term recurrence in k."""
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2
    if k == 0:
        return prev
    for m in range(2, k + 1):
        s = 2 * m + alpha + beta
        prev, cur = cur, (
            (s - 1) * (s * (s - 2) * x + alpha**2 - beta**2) * cur
            - 2 * (m + alpha - 1) * (m + beta - 1) * s * prev
        ) / (2 * m * (m + alpha + beta) * (s - 2))
    return cur


def mode(n: int, k: int, theta) -> np.ndarray:
    """The k-th eigenfunction P_k^{(2n-3, 1)}(cos 2 theta)."""
    return jacobi(k, 2 * n - 3, 1, np.cos(2 * np.asarray(theta)))


def response(n: int, k: int, r0: float) -> float:
    """R_k(n, r0): the limit of f per unit amplitude of P_k at radius r0."""
    lam = 4 * k * (k + 2 * n - 1)
    hat_h = (4 * n - 1) / math.tanh(r0) + 3 * math.tanh(r0)
    base = 1 + (4 * n - 1) / ((4 * n + 2) * math.sinh(r0)**2)
    return hat_h / (4 * n + 2) * base ** (-lam / (2 * (4 * n - 1)))


def mode_variance(n: int, k: int) -> float:
    """mean((P_k - mean)^2) over the orbit measure, for k >= 1: the
    Jacobi norm h_k over the total mass h_0, with alpha = 2n-3, beta = 1,

      h_k / h_0 = (alpha + beta + 1) / (2k + alpha + beta + 1)
                  * G(k+alpha+1) G(k+beta+1) G(alpha+beta+1)
                  / (G(k+alpha+beta+1) k! G(alpha+1) G(beta+1)),

    G the gamma function, summed in logs."""
    alpha, beta, lg = 2 * n - 3, 1, math.lgamma
    return (alpha + beta + 1) / (2 * k + alpha + beta + 1) * math.exp(
        lg(k + alpha + 1) + lg(k + beta + 1) + lg(alpha + beta + 1)
        - lg(k + alpha + beta + 1) - lg(k + 1) - lg(alpha + 1)
        - lg(beta + 1))


def small_limit_q(n: int, k: int, a: float) -> float:
    """limit_Q of f = a (P_k - mean) to order a^2, 2n a^2 lambda_k
    Vol^{1/m} mean((P_k - mean)^2)."""
    m = 2 * n + 1
    log_volume = math.log(2) + 2 * n * math.log(math.pi) - math.lgamma(2 * n)
    return (2 * n * a**2 * 4 * k * (k + 2 * n - 1) * math.exp(log_volume / m)
            * mode_variance(n, k))
