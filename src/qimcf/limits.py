"""Post-processing of long-time flow data.

The rescaled profiles rho(theta, t) - t/(2(2n+1)) settle down to a
function f(theta), the conformal factor of the sub-Riemannian limit
metric e^{2f} sigma_sR.  This module extracts f from snapshots, evaluates
the limiting value of the Q functional as a functional of f alone, fits
exponential decay rates of monitored quantities, and renders the
constancy verdict that certifies a non-round limit.
"""

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .geometry import RadialProfile, cached_grid

T_USABLE = 10.0  # snapshots earlier than this sit in the initial layer
VERDICT_TOL = 1e-6  # range threshold separating CONSTANT from NON_CONSTANT


@dataclass(frozen=True)
class ConformalFactor:
    """Zero-mean limit profile f on the theta grid.

    cauchy_residual is the max-norm difference between the extraction at
    t_extracted and the one at the nearest usable half-time snapshot; it
    quantifies how settled the limit is, without asserting a rate.
    """

    n: int
    f: np.ndarray
    t_extracted: float
    cauchy_residual: float


def _centered_f(profile: RadialProfile) -> np.ndarray:
    return profile.rho - float(profile.grid.weights @ profile.rho)


class LimitSnapshots:
    """The two snapshots extract_conformal_factor reads, kept on the fly.

    Fed a run's snapshots in time order, t_final being the last one's time,
    kept holds the latest usable one (t >= T_USABLE) and, before it, the
    usable one nearest t_final / 2 (the earlier on a tie): two profiles,
    however many records the run writes.
    """

    def __init__(self, t_final: float):
        self.t_half, self.kept = t_final / 2, []

    def add(self, t: float, profile: RadialProfile):
        if t >= T_USABLE:
            if len(self.kept) == 2:
                half, latest = (abs(s[0] - self.t_half) for s in self.kept)
                del self.kept[1 if half <= latest else 0]
            self.kept.append((t, profile))


def extract_conformal_factor(
        snapshots: Sequence[Tuple[float, RadialProfile]]) -> ConformalFactor:
    """Read f off the latest snapshot, normalized to zero orbit mean.

    The additive constant of f is pure gauge for every downstream
    quantity (limit_Q is invariant, the range ignores it), so the
    orbit-weighted mean is removed; that also makes runs with different
    initial radii directly comparable.  Requires at least two snapshots
    at t >= 10; the earlier one closest to half the final time (see
    LimitSnapshots) supplies the Cauchy residual.
    """
    # sorted by t alone: on a tie, comparing the profiles would raise
    usable = sorted(((float(t), p) for t, p in snapshots if t >= T_USABLE),
                    key=lambda snap: snap[0])
    if len(usable) < 2:
        raise ValueError(
            f"need at least two snapshots at t >= {T_USABLE}, "
            f"got {len(usable)}")
    pair = LimitSnapshots(usable[-1][0])
    for t, profile in usable:
        pair.add(t, profile)
    (_, half), (t_final, final) = pair.kept
    f = _centered_f(final)
    residual = float(np.max(np.abs(f - _centered_f(half))))
    return ConformalFactor(n=final.n, f=f, t_extracted=t_final,
                           cauchy_residual=residual)


def _derivative4(values: np.ndarray, dtheta: float) -> np.ndarray:
    """Fourth-order central first difference with two even ghost layers.

    The limit functional is evaluated once per run on settled data, so
    the extra accuracy is free and keeps the quadrature, not the
    stencil, as the dominant error term.
    """
    ext = np.empty(values.size + 4)
    ext[2:-2] = values
    ext[1], ext[0] = values[0], values[1]
    ext[-2], ext[-1] = values[-1], values[-2]
    return (-ext[4:] + 8 * ext[3:-1] - 8 * ext[1:-3]
            + ext[:-4]) / (12 * dtheta)


def limit_Q(factor: ConformalFactor) -> float:
    """Limiting Q of the flow as a functional of the conformal factor.

    With m = 2n+1, V = I[e^{2mf}] and I the orbit integral:

      limit_Q = 2n * V^{-1+1/m} * I[e^{4nf} |f'|^2]

    a sum of squares, so it is never negative and needs only f'.  It is
    one integration by parts of V^{-1+1/m} I[e^{2mf}(z Lap z - m |z'|^2)],
    z = e^{-f}, whose boundary terms vanish at both poles.  Vanishes iff
    f is constant (for invariant f); invariant under f -> f + const by
    homogeneity of the two factors.  Evaluated at f - max f in log scale,
    so neither integral can overflow: with L = log(weights) + 2mf,
    top = max L and E = e^{L-top}, it is
    2n Vol^{1/m} e^{top/m} (sum E)^{-1+1/m} sum E e^{-2f} |f'|^2.
    """
    n = factor.n
    grid = cached_grid(n, factor.f.size)
    m = 2 * n + 1
    f = factor.f - factor.f.max()
    with np.errstate(divide="ignore"):  # a weight that underflowed to 0
        log_terms = np.log(grid.weights) + 2 * m * f
    top = log_terms.max()
    fp = _derivative4(f, grid.dtheta)
    return float(2 * n * grid.volume ** (1 / m) * np.exp(top / m)
                 * np.exp(log_terms - top).sum() ** (-1 + 1 / m)
                 * (np.exp(log_terms - top - 2 * f) @ fp**2))


@dataclass(frozen=True)
class ConstancyVerdict:
    """Outcome of the constant-curvature test for the limit metric."""

    verdict: str  # CONSTANT or NON_CONSTANT
    f_range: float
    limit_Q: float


def constancy_verdict(factor: ConformalFactor) -> ConstancyVerdict:
    """Classify the limit: CONSTANT if max f - min f < VERDICT_TOL.

    For invariant f, constant qc-scalar curvature of e^{2f} sigma_sR is
    equivalent to f being constant, so the range test is the direct
    criterion; a NON_CONSTANT verdict together with limit_Q >
    VERDICT_TOL is the quantitative certificate (limit_Q is a sum of
    squares, and a positive one cannot come from a round limit).
    """
    f_range = float(factor.f.max() - factor.f.min())
    verdict = "CONSTANT" if f_range < VERDICT_TOL else "NON_CONSTANT"
    return ConstancyVerdict(verdict=verdict, f_range=f_range,
                            limit_Q=limit_Q(factor))


def fit_decay_rate(series: Sequence[Tuple[float, float]],
                   t_min: float) -> float:
    """Least-squares exponential rate of a positive series.

    Fits log y = rate * t + intercept over the points with t >= t_min and
    returns the rate, the closed-form slope sum((t - mean t) log y) /
    sum((t - mean t)^2).  Decaying series give negative rates.
    """
    pts = [(float(t), float(y)) for t, y in series if t >= t_min]
    if len(pts) < 10:
        raise ValueError(f"need at least 10 points with t >= {t_min}, "
                         f"got {len(pts)}")
    t, y = np.array(pts).T
    if np.any(y <= 0):
        raise ValueError("series values must be positive to fit a log rate")
    dt = t - t.mean()
    return float(dt @ np.log(y) / (dt @ dt))
