"""Quaternionic linear algebra and ambient curvature of HH^n.

Points and tangent vectors of R^{4n} are plain float64 numpy arrays whose
last axis has length 4n, read as n quaternion blocks (w, x, y, z).  The
three complex structures J1, J2, J3 act blockwise by LEFT multiplication
with the imaginary units i, j, k (so J1 e0 = e1 and J1 J2 = J3).

The curvature tensor of quaternionic hyperbolic space is evaluated in the
unit-tangent-space model, where the metric is the Euclidean inner product.
"""

import numpy as np


def _euclidean(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", x, y)


def apply_J(i: int, x: np.ndarray) -> np.ndarray:
    """Apply the complex structure J_i, blockwise left quaternion product.

    Accepts any batch shape (..., 4n) and preserves it.  Norm-preserving
    and skew: <J_i x, y> = -<x, J_i y>.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"complex structure index must be 1, 2 or 3, got {i}")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] % 4 != 0:
        raise ValueError(f"last axis must have length 4n, got {x.shape[-1]}")
    q = x.reshape(x.shape[:-1] + (-1, 4))
    w, a, b, c = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    if i == 1:
        out = np.stack([-a, w, -c, b], axis=-1)
    elif i == 2:
        out = np.stack([-b, c, w, -a], axis=-1)
    else:
        out = np.stack([-c, -b, a, w], axis=-1)
    return out.reshape(x.shape)


def curvature_tensor(X, Y, Z, W) -> np.ndarray:
    """Curvature R(X,Y,Z,W) of HH^n (sectional range [-4,-1] convention).

    R = -g(X,Z)g(Y,W) + g(X,W)g(Y,Z)
        - sum_i [ g(X,J_i Z)g(Y,J_i W) - g(X,J_i W)g(Y,J_i Z) ]
        - 2 sum_i g(X,J_i Y) g(Z,J_i W)

    with g the Euclidean product.  Broadcasts over batch axes.
    """
    g = _euclidean
    X, Y, Z, W = (np.asarray(a, dtype=float) for a in (X, Y, Z, W))
    val = -g(X, Z) * g(Y, W) + g(X, W) * g(Y, Z)
    for i in (1, 2, 3):
        JZ, JW, JY = apply_J(i, Z), apply_J(i, W), apply_J(i, Y)
        val = val - (g(X, JZ) * g(Y, JW) - g(X, JW) * g(Y, JZ))
        val = val - 2.0 * g(X, JY) * g(Z, JW)
    return val


def sectional(X, Y) -> np.ndarray:
    """Sectional curvature of the plane span{X, Y}, X, Y orthonormal.

    K = -1 - 3 sum_i g(X, J_i Y)^2, which lies in [-4, -1]: the extremes
    are attained on quaternionic planes (Y in span{J_i X}) and on totally
    real planes.
    """
    g = _euclidean
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    bad = (np.abs(g(X, X) - 1) > 1e-8) | (np.abs(g(Y, Y) - 1) > 1e-8) \
        | (np.abs(g(X, Y)) > 1e-8)
    if np.any(bad):
        raise ValueError("sectional requires an orthonormal pair")
    val = np.zeros(np.broadcast(g(X, X), g(Y, Y)).shape)
    for i in (1, 2, 3):
        val = val + g(X, apply_J(i, Y)) ** 2
    return -1.0 - 3.0 * val


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def ricci_check(n: int, samples: int, seed: int = 0) -> dict:
    """Trace the curvature form over an orthonormal frame at sampled directions.

    HH^n is Einstein with Ric = -4(n+2) g; reports the worst deviation of
    Ric(u,u) from that constant over ``samples`` random unit vectors.
    """
    if n < 2 or samples < 1:
        raise ValueError(f"need n >= 2 and samples >= 1, got n = {n}, "
                         f"samples = {samples}")
    dim, expected = 4 * n, -4.0 * (n + 2)
    M = np.random.default_rng(seed).standard_normal((samples, dim, dim))
    basis = np.swapaxes(np.linalg.qr(M)[0], 1, 2)  # rows orthonormal
    u = basis[:, :1]  # u = the first row, the direction of M's first column
    ric = curvature_tensor(u, basis, u, basis).sum(-1)
    return {"n": n, "samples": samples, "expected": expected,
            "max_error": float(np.abs(ric - expected).max())}


def verify_ambient(n: int, samples: int, seed: int = 0) -> dict:
    """Curvature verification report: sectional range, anchor values,
    tensor symmetries, first Bianchi, and the Einstein constant.

    Returns a dict of worst-case residuals; harness.verify_ambient_report
    and the acceptance suite assert the tolerances.  Raises ValueError
    unless n >= 2 and samples >= 1.
    """
    ricci = ricci_check(n, min(samples, 100), seed=seed)  # refuses bad n, samples
    rng = np.random.default_rng(seed)
    dim = 4 * n
    report = {"n": n, "samples": samples}

    X = _unit(rng.standard_normal((samples, dim)))
    Y = rng.standard_normal((samples, dim))
    K = sectional(X, _unit(Y - _euclidean(Y, X)[:, None] * X))
    sec_lo, sec_hi = float(K.min()), float(K.max())
    report["sectional_min"], report["sectional_max"] = sec_lo, sec_hi
    # violation of the closed range [-4, -1]
    report["sectional_range_violation"] = max(0.0, -4.0 - sec_lo, sec_hi - (-1.0))
    JX = np.stack([apply_J(i, X) for i in (1, 2, 3)])
    JX = JX[rng.integers(0, 3, samples), np.arange(samples)]
    report["quaternionic_plane_error"] = float(np.abs(sectional(X, JX) + 4.0).max())

    # totally real planes: X in one quaternionic block, Y in another
    XY = np.zeros((2, min(samples, 100), dim))
    XY[0, :, :4], XY[1, :, 4:8] = _unit(rng.standard_normal(XY.shape[:2] + (4,)))
    report["real_plane_error"] = float(np.abs(sectional(*XY) + 1.0).max())

    X, Y, Z, W = rng.standard_normal((4, min(samples, 200), dim))
    r = curvature_tensor(X, Y, Z, W)
    report["pair_symmetry_error"] = float(max(
        np.abs(r - curvature_tensor(Z, W, X, Y)).max(),
        np.abs(r + curvature_tensor(Y, X, Z, W)).max()))
    report["bianchi_error"] = float(np.abs(
        r + curvature_tensor(Y, Z, X, W) + curvature_tensor(Z, X, Y, W)).max())

    report["ricci_max_error"] = ricci["max_error"]
    return report
