"""Dense window code that the sparse band oracle replaced, kept as a reference.

``dense_window_series`` evaluates the contour expansion order by order with
dense resolvent products on a window; it is the only place where operator
norms of the order terms are available, and it cross-checks the chain engine
and the closed-form orders.  ``diagonalize_oracle`` is the dense ``eigh``
oracle that ``polywave.bloch.diagonalize_oracle`` replaced with a sparse
shift-invert solve; the differential tests in ``test_bloch.py`` hold the
sparse oracle to it.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import scipy.linalg

from polywave.bloch import ORACLE_SITES_MAX, QUAD_NODES, BlochEigenpair, ContourSpec
from polywave.errors import ConfigError, ContractError, ResonanceError
from polywave.lattice import (
    LatticeIndex,
    ModelContext,
    PeriodicFunction,
    integer_grid,
    star_norm,
)
from polywave.nonres import anchor, energy_gaps


@dataclass(frozen=True)
class DenseWindowSeries:
    """Order-by-order expansion evaluated with dense matrices on a window.

    ``order_terms[r]`` is the full order-r projector correction as a matrix
    over the window sites (order 0 reproduces the unperturbed projector),
    ``g_dense[r]`` the order-r eigenvalue correction from the trace formula.
    Intended as an independent cross-check of the sparse-chain engine and as
    the only place where operator-level norms are available.
    """

    sites: Tuple[LatticeIndex, ...]
    center_index: int
    order_terms: Tuple[np.ndarray, ...]
    g_dense: Tuple[complex, ...]

    @property
    def projector(self) -> np.ndarray:
        return sum(self.order_terms)


def _window(ctx: ModelContext, W: PeriodicFunction, t, j, radius: int):
    """Site offsets, energy gaps and coupling matrix of the window of sup-norm
    ``radius`` around the anchor, sites in row-major order (the anchor is the
    middle one); matrix entry (i, k) is ``w_{d_i - d_k}``, its diagonal empty."""
    full = 2 * radius + 1
    dim = full ** ctx.n
    if dim > ORACLE_SITES_MAX:
        raise ConfigError(f"window dimension {dim} exceeds {ORACLE_SITES_MAX}")
    offsets = integer_grid(radius, ctx.n).reshape(-1, ctx.n)
    site = {d: i for i, d in enumerate(map(tuple, offsets.tolist()))}
    mat = np.zeros((dim, dim), dtype=complex)
    for q, c in W.coeffs.items():
        for d, k in site.items():
            i = site.get(tuple(a + b for a, b in zip(d, q)))
            if i is not None:
                mat[i, k] = c
    return offsets, energy_gaps(ctx, t, j, offsets), mat


def dense_window_series(
    ctx: ModelContext,
    W: PeriodicFunction,
    t,
    j,
    r_max: Optional[int] = None,
    quad_count: Optional[int] = None,
    radius: Optional[int] = None,
) -> DenseWindowSeries:
    """Same contour expansion, brute-forced with dense resolvent products."""
    r_max = ctx.r_max if r_max is None else r_max
    count = QUAD_NODES if quad_count is None else quad_count
    if radius is None:
        radius = (r_max + 1) * max(W.box_radius, 1)
    a = anchor(ctx, t, j)

    offsets, gaps, Wmat = _window(ctx, W, a.t, a.j, radius)
    dim = len(offsets)
    center_index = dim // 2

    zeta_nodes, weights = ContourSpec(a.center, a.rho, count).nodes()
    terms = [np.zeros((dim, dim), dtype=complex) for _ in range(r_max + 1)]
    g_dense = np.zeros(r_max + 1, dtype=complex)
    for zeta, w in zip(zeta_nodes, weights):
        Svec = 1.0 / (gaps - zeta)
        Svec[center_index] = -1.0 / zeta   # unperturbed resolvent at the anchor
        R0 = np.diag(Svec)
        M = R0
        for r in range(r_max + 1):
            if r > 0:
                M = M @ (Wmat @ R0)
            sign = (-1) ** (r + 1)
            terms[r] += (w * sign) * M
            g_dense[r] += (w * sign) * zeta * np.trace(M)

    return DenseWindowSeries(
        sites=tuple(tuple(int(c) for c in a.j + d) for d in offsets),
        center_index=center_index,
        order_terms=tuple(terms),
        g_dense=tuple(complex(v) for v in g_dense),
    )


def op_norm_1(mat: np.ndarray) -> float:
    """Induced 1-norm: maximum absolute column sum."""
    return float(np.abs(mat).sum(axis=0).max())


# ---------------------------------------------------------------------------
# dense diagonalization oracle
# ---------------------------------------------------------------------------

def diagonalize_oracle(
    ctx: ModelContext,
    W: PeriodicFunction,
    t,
    j,
    window: Optional[int] = None,
) -> BlochEigenpair:
    """Eigenpair from dense diagonalization on a window around the anchor.

    The window (sup-norm radius ``ceil(2k)`` by default) contains every site
    whose unperturbed energy can approach the spectral window, so exactly one
    eigenvalue of the windowed operator must fall inside ``(c - rho, c + rho)``;
    anything else raises ``ResonanceError``.  The eigenvalue is reported as a
    gap from ``c`` via a Rayleigh quotient over the shift-stabilized matrix,
    which restores the accuracy lost to the huge absolute scale of the raw
    eigensolve.
    """
    a = anchor(ctx, t, j)
    t, j, k, center, rho = a.t, a.j, a.k, a.center, a.rho
    if not W.is_real_valued():
        raise ContractError("perturbation must be real-valued")
    if W.get((0,) * ctx.n) != 0:
        raise ContractError("oracle expects a zero-mean perturbation")
    M = ctx.m_lin(k) if window is None else int(window)

    offsets, gaps, Hs = _window(ctx, W, t, j, M)
    center_index = len(offsets) // 2
    Hs[np.diag_indices_from(Hs)] = gaps

    vals, vecs = scipy.linalg.eigh(Hs, subset_by_value=(-rho, rho))
    if vals.size == 0:
        raise ResonanceError(
            f"no eigenvalue inside ({center - rho:.6g}, {center + rho:.6g}) "
            f"on the window of radius {M}"
        )
    if vals.size > 1:
        raise ResonanceError(
            f"{vals.size} eigenvalues inside the spectral window; "
            "the band is not isolated here"
        )
    phi = vecs[:, 0]
    phi = phi / np.linalg.norm(phi)

    # One Rayleigh step on the stabilized matrix: the raw eigenvalue carries
    # an absolute error ~eps * ||H||, the quotient only ~eps * |lam_gap|-ish.
    lam_gap = float(np.real(np.vdot(phi, Hs @ phi)))

    column = PeriodicFunction.from_box(phi.reshape((2 * M + 1,) * ctx.n)).scale(
        np.conj(phi[center_index])
    )

    boundary = np.max(np.abs(offsets), axis=1) == M
    leak = float(np.max(np.abs(phi[boundary]))) if boundary.any() else 0.0
    tail = star_norm(W) * leak

    return BlochEigenpair(
        **vars(a),
        lam_gap=lam_gap,
        proj_column=column,
        backend="diag",
        tail_bound=tail,
        tail_bound_column=tail,
    )
