"""Reference chain engine on a different algorithm: anchor split plus trace.

Each contour node is evaluated on its own.  Every resolvent chain is split
at its returns to the anchor: the off-anchor resolvent ``S`` (zero at the
anchor) advances the outward chain with one ``scipy.signal.convolve`` per
order, the returns give scalar weights, scalar loop-weight recursions
assemble the projector columns, and the eigenvalue terms come from the Kato
trace formula through powers of the return polynomial.  ``polywave.bloch``
instead runs one chain on the full free resolvent and reads the eigenvalue
terms off the columns through the anchor identity of ``(H - lam) P = 0``.
The two share only the contour nodes, so the differential tests in
``test_bloch.py`` check one algorithm against the other, within tolerances
fixed from float64 rounding.
"""

from typing import Tuple

import numpy as np
import scipy.signal

from polywave.bloch import ContourSpec
from polywave.lattice import ModelContext, PeriodicFunction


def _chain_series(
    ctx: ModelContext,
    gaps: np.ndarray,
    W: PeriodicFunction,
    r_max: int,
    contour: ContourSpec,
) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the expansion at one quadrature resolution.

    Returns ``(g_terms, columns)`` where ``g_terms[r]`` is the order-r
    eigenvalue correction and ``columns[r]`` the order-r projector column on
    the offset grid (r = 0 slot unused).  Every resolvent chain is split at
    its returns to the anchor: the inter-return segments give the scalar
    weights ``a_b = (W (S W)^b)_{anchor,anchor}``, the outward tail gives the
    vectors ``(S W)^c e_anchor``, and both are assembled with the loop
    generating function ``log(1 + g * sum_b (-1)^b a_b)`` for the eigenvalue.
    """
    grid_shape = gaps.shape
    center_idx = tuple(s // 2 for s in grid_shape)
    zeta_nodes, weights = contour.nodes()

    g_terms = np.zeros(r_max + 1, dtype=complex)
    columns = np.zeros((r_max + 1,) + grid_shape, dtype=complex)
    delta = np.zeros(grid_shape, dtype=complex)
    delta[center_idx] = 1.0

    # First chain application is just the kernel centred on the anchor;
    # embedding it directly keeps the return weight a_0 = W_jj exactly zero
    # for zero-mean input, where a transform-based convolution of the delta
    # would backfill it with dust that the contour integral then reports as
    # a spurious order-1 eigenvalue term.
    y_first = W.to_box(grid_shape[0] // 2)

    for zeta, w in zip(zeta_nodes, weights):
        g = -1.0 / zeta
        S = 1.0 / (gaps - zeta)
        S[center_idx] = 0.0

        # Outward chain and anchor-return weights in one sweep.
        a = np.zeros(r_max, dtype=complex)
        us = [delta]
        u = delta
        for b in range(r_max):
            y = y_first if b == 0 else scipy.signal.convolve(u, W.box, mode="same")
            a[b] = y[center_idx]
            u = S * y
            us.append(u)

        # Loop weights D_m: all ways to spend m couplings on closed returns.
        D = np.zeros(r_max + 1, dtype=complex)
        D[0] = 1.0
        for m in range(1, r_max + 1):
            acc = 0.0 + 0.0j
            for b in range(m):
                acc += a[b] * D[m - 1 - b]
            D[m] = g * acc

        for r in range(1, r_max + 1):
            acc_col = np.zeros(grid_shape, dtype=complex)
            for c in range(r + 1):
                acc_col += us[c] * D[r - c]
            columns[r] += w * ((-1) ** (r + 1)) * g * acc_col

        # Eigenvalue terms from powers of the return-weight polynomial.
        Av = np.array([1.0 + 0.0j])
        gv = 1.0 + 0.0j
        for v in range(1, r_max + 1):
            Av = np.convolve(Av, a)[:r_max] if a.size else np.zeros(0, dtype=complex)
            gv *= g
            for r in range(v, r_max + 1):
                s = r - v
                if s < Av.size:
                    g_terms[r] += w * ((-1) ** r) * gv * Av[s] / v

    return g_terms, columns
