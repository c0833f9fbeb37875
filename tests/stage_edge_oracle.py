"""Stability edges of the flow's Runge-Kutta methods from the spectrum of
the pole stencil: the oracle that generates src/qimcf/stage_edges.py.

flow.method_edges(n) reads the table this module writes, so no run
computes an eigenvalue.  After a change to METHODS, to the stencil or to
config.MAX_N, regenerate the table from the repository root:

    PYTHONPATH=src python tests/stage_edge_oracle.py > src/qimcf/stage_edges.py

and tests/test_flow.py checks that every shipped row equals stage_edge
bit for bit.
"""

import functools
import sys

import numpy as np

from qimcf.config import MAX_N
from qimcf.flow import METHODS, Method
from qimcf.geometry import cached_grid

EDGE_NODES = 128     # grid of the operator whose spectrum sets stage_edge


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
        euler = 1 + method.c * k * half_lam
        growth = 1.0
        for a in method.a:
            # a = 0 skips two passes that change no |growth|
            growth = a + (1 - a) * growth * euler if a else growth * euler
        # the slack absorbs the rounding of the constant mode's lam = 0
        return np.abs(growth).max() <= 1 + 1e-12

    lo, hi = 0.0, float(len(method.a))  # each edge is below the stage count
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if stable(mid) else (lo, mid)
    return lo


def table_module() -> str:
    """The text of src/qimcf/stage_edges.py: one row per n = 2..MAX_N,
    n and then stage_edge(n, method) for each method of METHODS, as repr."""
    rows = [" ".join([str(n)] + [repr(stage_edge(n, method))
                                 for method in METHODS])
            for n in range(2, MAX_N + 1)]
    names = ", ".join(method.name for method in METHODS)
    return (
        "# Generated by tests/stage_edge_oracle.py; do not edit.  "
        "Regenerate with\n#   PYTHONPATH=src python tests/stage_edge_oracle.py"
        " > src/qimcf/stage_edges.py\n"
        '"""Stability edges kappa(n) of flow.METHODS, read by flow.method_edges.\n'
        "\n"
        f"One row per n = 2..{MAX_N}: n, then one edge per method, each as "
        f"repr:\n{names}.\n"
        '"""\n'
        "\n"
        'STAGE_EDGES = """\\\n' + "\n".join(rows) + '\n"""\n')


if __name__ == "__main__":
    sys.stdout.write(table_module())
