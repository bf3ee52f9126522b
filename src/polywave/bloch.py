"""Spectral data for one isolated band of a perturbed lattice operator.

The unperturbed operator is diagonal in the plane-wave basis with symbol
``mu_i = |t + i|^{2l}``; a periodic perturbation ``W`` couples sites through
its Fourier coefficients.  For an admitted quasi-momentum the eigenvalue
near ``c = k^{2l}`` and the matching spectral-projector column are recovered
from a contour integral around ``c``, expanded order by order in ``W``.

Two backends produce the same quantities:

* ``series_eigenpair`` evaluates the expansion exactly on the infinite
  lattice.  One resolvent chain ``R0 (W R0)^r e_anchor`` per contour node,
  with the free resolvent ``R0 = 1/(mu - c - zeta)``, gives the order-r
  projector columns; the eigenvalue terms are read off those columns through
  the anchor entry of ``(H - lam) P = 0``, which says
  ``(lam - c) P_jj = (W P)_jj``.  The chain applies ``W`` as a stencil of
  shifted slices on windows that hold its exact support, so no lattice
  truncation enters; the only approximations are the series order ``r_max``
  and the trapezoid contour quadrature, both of which are controlled and
  reported.  All nodes of a contour ring are evaluated in one pass with the
  nodes on a leading axis, in blocks of bounded memory, and a doubled ring
  reuses the sums of the ring it contains.  When ``W`` is even (every
  coefficient real) the chain at ``conj(zeta)`` is the conjugate of the
  chain at ``zeta``, so only the half ring with ``Im zeta >= 0`` runs and
  the ring sum is the real part of its doubly weighted sum.
* ``diagonalize_oracle`` builds the operator on a finite window, finds the
  eigenvalue nearest ``c`` by shift-invert on one LU factorisation (Lanczos
  when ``W`` is even, so the matrix is real symmetric; Arnoldi when it is
  complex Hermitian), and polishes it with a shift-stabilized Rayleigh
  quotient.  It solves for the second-nearest eigenvalue too, to prove the
  band isolated, unless a Weyl bound already does: its own,
  ``min |gap| - ||W||_*`` over the sites other than the anchor, or one the
  caller derives from an earlier solve (``isolation``).  The window
  operator's own fill picks the factorisation: a dense array factored by
  LAPACK when its stored entries are a large fraction of the matrix (the
  nonlinear l = 1 ``W``), a symmetric-ordered sparse LU otherwise.  It is
  window-limited but entirely independent of the series algebra.  Dense
  ``eigh`` cross-checks of both backends live in the test suite.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ContractError, NonConvergence, NumericalFailure, ResonanceError
from .lattice import (
    ModelContext,
    PeriodicFunction,
    integer_grid,
    star_norm,
)
from .nonres import K0, Anchor, anchor, energy_gaps, exponents, require_nonresonant

# Nodes of the first contour ring; the ring doubles from here until two
# consecutive resolutions agree to QUAD_RTOL.
QUAD_NODES = 64
# Relative agreement demanded between two consecutive quadrature resolutions.
QUAD_RTOL = 1e-10
# How many times the node count may double before giving up.  Each doubling
# squares the trapezoid aliasing factor on a circle, so a handful of rounds
# separates slow-but-convergent geometry from a genuine failure.
QUAD_MAX_DOUBLINGS = 3
# Series terms below this fraction of the dominant term count as zero when
# estimating empirical decay ratios (guards against parity-forced dust).
NOISE_REL = 1e-13
# Empirical tails are refused once the observed ratio exceeds this.
EMPIRICAL_RATIO_MAX = 0.8
EMPIRICAL_SAFETY = 4.0
# Byte budget of the resolvent and chain vectors of one block of contour
# nodes, so the working set of a band solve does not grow with grid size
# times node count.
NODE_BLOCK_BYTES = 2 * 2**20
# Resource guard for the oracle window, in lattice sites.  On the sparse path
# memory is bounded by the fill of the LU factor, not by the non-zeros of the
# window operator: at n = 3 with a cosine potential (real, 8 bytes an entry),
# 2197 sites factor into 0.21 M entries (0.01 s), 9261 into 2.2 M (16.5 MiB,
# 0.5 s; peak process RSS 116 MiB) and 24389 into 10.4 M (79 MiB, 11 s; peak
# RSS 299 MiB); one core of a 2-vCPU host.  The dense path holds ``sites**2``
# entries twice (the operator and its LU), each within ORACLE_DENSE_BYTES.
ORACLE_SITES_MAX = 12000
# A window operator whose stored entries reach this fraction of ``sites**2``
# is factored dense by LAPACK, if the dense matrix fits ORACLE_DENSE_BYTES;
# every other window goes to SuperLU.  Measured on one core of a 2-vCPU host
# (factor plus shift-invert eigensolve, medians of 3-5): a real operator
# breaks even at 13-14 % stored at 961-1681 sites and is 1.8x faster dense at
# 20 % (l1_k8 nonlinear W, 1089 sites: 0.065 s against 0.117 s), while the
# l3 desks (0.3-1.1 % stored) are 4-11x faster sparse.  A complex operator
# breaks even near 30 %, so the fraction scales with the entry size (16 bytes
# against 8); the byte budget keeps it sparse from 1025 sites up.
ORACLE_DENSE_FRACTION = 0.15
ORACLE_DENSE_BYTES = 16 * 2**20


@dataclass(frozen=True)
class ContourSpec:
    """Circular contour around ``center`` traversed by an N-point trapezoid rule."""

    center: float
    rho: float
    count: int

    def nodes(self) -> Tuple[np.ndarray, np.ndarray]:
        """Offsets ``zeta = z - center`` and weights absorbing the 1/(2*pi*i).

        With these weights, ``sum(w * f(zeta))`` approximates
        ``(1/2*pi*i) * contour integral of f``.
        """
        theta = 2.0 * np.pi * np.arange(self.count) / self.count
        phase = np.exp(1j * theta)
        zeta = self.rho * phase
        weights = (self.rho / self.count) * phase
        return zeta, weights


@dataclass(frozen=True)
class BlochEigenpair(Anchor):
    """One isolated eigenvalue and its projector column at the anchor site.

    ``lam_gap`` is the accurately-resolved difference ``lam - center``; use it
    instead of ``lam = center + lam_gap`` whenever small differences matter,
    since ``lam`` itself is dominated by the huge unperturbed energy.
    ``proj_column`` stores the projector column in offset coordinates:
    coefficient ``d`` belongs to lattice site ``j + d``, so
    ``proj_column.get((0,) * n)`` is the diagonal entry ``E_jj``.
    ``quad_err`` is the relative disagreement of the accepted contour ring
    and ``quad_nodes`` its node count; both are 0 where no ring ran.
    ``isolation`` is the oracle's lower bound on ``|mu|`` over the other
    eigenvalues ``mu`` of its shifted window operator (see
    ``diagonalize_oracle``; NaN on the series backend); no artifact writes it.
    """

    lam_gap: float
    proj_column: PeriodicFunction
    g_terms: Tuple[complex, ...] = ()
    G_norms: Tuple[float, ...] = ()
    backend: str = "series"
    tail_bound: float = math.inf
    tail_bound_column: float = math.inf
    tail_certified: bool = False
    quad_err: float = 0.0
    quad_nodes: int = 0
    isolation: float = math.nan

    @property
    def lam(self) -> float:
        return float(self.center + self.lam_gap)

    @property
    def e_jj(self) -> float:
        return float(self.proj_column.get((0,) * len(self.j)).real)

    def psi(self, amplitude: complex) -> PeriodicFunction:
        """Scaled projector column; the working eigenfunction ansatz."""
        return self.proj_column.scale(amplitude)


# ---------------------------------------------------------------------------
# series backend
# ---------------------------------------------------------------------------

def _stencil(W: PeriodicFunction, size: int):
    """``(c, dst, src)`` per nonzero coefficient ``c = w_q``: adding
    ``c * u[src]`` into ``y[dst]`` over boxes of side ``size`` in the trailing
    axes forms ``y[x] = sum_q w_q u[x - q]``, dropping what leaves the box."""
    offsets, amps = W.nonzero()
    terms = []
    for q, c in zip(offsets.tolist(), amps.tolist()):
        if max(map(abs, q)) >= size:
            continue    # couples no two sites of the box
        dst = (Ellipsis,) + tuple(slice(max(qa, 0), size + min(qa, 0)) for qa in q)
        src = (Ellipsis,) + tuple(slice(max(-qa, 0), size - max(qa, 0)) for qa in q)
        terms.append((c, dst, src))
    return terms


def _chain_series(
    gaps: np.ndarray,
    W: PeriodicFunction,
    r_max: int,
    zeta_nodes: np.ndarray,
    weights: np.ndarray,
) -> np.ndarray:
    """Weighted sums of the projector expansion over the given contour nodes.

    Returns ``columns`` with ``columns[r] = (-1)^(r+1) sum_nodes w R0 (W R0)^r
    e_anchor``, the order-r projector column on the offset grid (r = 0 slot
    unused), where ``R0 = 1 / (gaps - zeta)`` is the free resolvent; ``gaps``
    is zero at the anchor, so ``R0`` is ``-1/zeta`` there.  The eigenvalue
    terms follow from these sums (``_eigenvalue_terms``), not per node.

    Nodes sit on a leading axis and are processed in blocks whose resolvent
    and chain vectors fit ``NODE_BLOCK_BYTES``; ``W`` is applied as a sum of
    shifted slices, one per nonzero coefficient.
    """
    grid_shape = gaps.shape
    R = W.box_radius
    full = grid_shape[0] // 2

    # Chain step b maps the order-b vector, held within sup-norm b*R of the
    # anchor, into the window of radius (b+1)*R; nothing reaches past it, so
    # each step works on its own window and drops nothing.
    radii = [(b + 1) * R for b in range(r_max)]
    windows = [(Ellipsis,) + (slice(full - rad, full + rad + 1),) * gaps.ndim for rad in radii]
    stencils = [_stencil(W, 2 * rad + 1) for rad in radii]

    columns = np.zeros((r_max + 1,) + grid_shape, dtype=complex)

    # First chain application is just the kernel centred on the anchor;
    # embedding it directly keeps the anchor entry of W e_anchor exactly zero
    # for zero-mean input, where a transform-based convolution of the delta
    # would backfill it with dust that the contour integral then reports as
    # a spurious order-1 eigenvalue term.
    y_first = W.to_box(R)

    block = max(1, NODE_BLOCK_BYTES // (2 * gaps.size * 16))
    for lo in range(0, len(zeta_nodes), block):
        zeta = zeta_nodes[lo:lo + block]
        nodes = zeta.size
        R0 = 1.0 / (gaps - zeta.reshape((nodes,) + (1,) * gaps.ndim))

        # R0 (W R0)^r e_anchor = -(1/zeta) (R0 W)^r e_anchor: the chain runs on
        # u = (R0 W)^r e_anchor and the node weight absorbs -(1/zeta).
        coef = weights[lo:lo + block] / zeta
        u = np.zeros((nodes,) + grid_shape, dtype=complex)
        for b, (win, stencil) in enumerate(zip(windows, stencils)):
            if b == 0:
                y = y_first
            else:
                x = u[win]
                y = np.zeros(x.shape, dtype=complex)
                for c, dst, src in stencil:
                    y[dst] += c * x[src]
            np.multiply(R0[win], y, out=u[win])
            coef = -coef
            columns[b + 1][win] += np.tensordot(coef, u[win], axes=1)
    return columns


def _eigenvalue_terms(W: PeriodicFunction, columns: np.ndarray) -> np.ndarray:
    """Order-r eigenvalue terms ``g_r`` (r = 0 slot zero) from the order-r
    projector columns ``C_r`` of ``_chain_series``.

    The anchor entry of ``(H - lam) P e_anchor = 0`` reads
    ``(lam - c) P_jj = (W P)_jj``, since the free gap is zero there; order by
    order, with ``C_0 = e_anchor``,
    ``g_r = (W C_{r-1})_jj - sum_{0<s<r} g_s (C_{r-s})_jj`` where
    ``(W C)_jj = sum_d w_{-d} C_d``.  The recursion is nonlinear in the
    columns, so it runs on the combined sums of a whole ring.
    """
    r_max = columns.shape[0] - 1
    full = columns.shape[1] // 2
    offsets, amps = W.nonzero()
    w_c = columns[(slice(None),) + tuple((full - offsets).T)] @ amps
    c_jj = columns[(slice(None),) + (full,) * (columns.ndim - 1)]
    g = np.zeros(r_max + 1, dtype=w_c.dtype)
    for r in range(1, r_max + 1):
        g[r] = w_c[r - 1] - g[1:r] @ c_jj[r - 1:0:-1]
    return g


def _empirical_tail(values: Sequence[float]) -> Tuple[float, float]:
    """Geometric tail estimate from observed per-order magnitudes.

    Returns ``(tail, ratio)``; infinite when neither parity of orders has two
    terms above the noise floor or when the decay ratio is too close to 1.
    Even and odd orders are estimated separately: alternate orders vanish
    identically on a bipartite coupling graph and sit orders of magnitude
    below the others on a nearly bipartite one (the nonlinear l = 1 ``W``),
    so a ratio across parities measures that gap, not the decay.  Ratios are
    taken between consecutive *nonzero* terms of one parity, re-expressed per
    single order; the larger ratio, applied to the larger last term, bounds
    the tail of either parity.
    """
    mags = [abs(v) for v in values]
    scale = max(mags, default=0.0)
    if scale == 0.0:
        return 0.0, 0.0
    ratios, lasts = [], []
    for parity in (0, 1):
        nz = [(r, m) for r, m in enumerate(mags[parity::2]) if m > NOISE_REL * scale]
        ratios += [(m2 / m1) ** (0.5 / (r2 - r1)) for (r1, m1), (r2, m2) in zip(nz, nz[1:])]
        lasts += [m for _, m in nz[-1:]]
    if not ratios:
        return math.inf, math.inf
    ratio = max(ratios)
    if ratio >= EMPIRICAL_RATIO_MAX:
        return math.inf, ratio
    return EMPIRICAL_SAFETY * max(lasts) * ratio / (1.0 - ratio), ratio


def series_eigenpair(
    ctx: ModelContext,
    W: PeriodicFunction,
    t,
    j,
) -> BlochEigenpair:
    """Eigenvalue and projector column from the contour-integral expansion.

    ``W`` must be the zero-mean part of the perturbation (fold any mean into
    the eigenvalue afterwards).  The node count doubles until two consecutive
    quadrature resolutions agree to ``QUAD_RTOL`` (relative disagreements are
    dominated by trapezoid aliasing, which a doubling squares away, so the
    escalation terminates fast whenever the contour clears the nearest pole);
    each doubled ring reuses the sums of the previous one and evaluates only
    its new nodes.  When ``W`` is even only the upper half of each ring runs
    (nodes ``k = 0..N/2`` of the N ring, ``k = 0..N/2-1`` of the odd half of
    the 2N ring) and the sums are exactly real; an odd ``W`` runs every node,
    and the imaginary part of ``lam_gap`` then enters ``quad_err``.
    ``quad_nodes`` is the size of the accepted ring either way.  Admission of
    the quasi-momentum is verified up front, except in the trivial decoupled
    case ``W == 0``.
    """
    a = anchor(ctx, t, j)
    if W.get((0,) * ctx.n) != 0:
        raise ContractError("series expansion expects a zero-mean perturbation")
    if not W.is_real_valued():
        raise ContractError("perturbation must be real-valued")
    if len(W):
        require_nonresonant(ctx, a.t, a.j)
    return _series_eigenpair(ctx, W, a)


def _series_eigenpair(ctx: ModelContext, W: PeriodicFunction, a: Anchor) -> BlochEigenpair:
    """``series_eigenpair`` for a zero-mean real ``W`` at an anchor whose
    admission the caller has already verified."""
    r_max, count = ctx.r_max, QUAD_NODES
    t, j, k, center, rho = a.t, a.j, a.k, a.center, a.rho

    if len(W) == 0:
        return BlochEigenpair(
            **vars(a), lam_gap=0.0,
            proj_column=PeriodicFunction.constant(ctx.n, 1.0), g_terms=(0.0 + 0.0j,) * r_max,
            G_norms=(0.0,) * r_max, tail_bound=0.0, tail_bound_column=0.0,
            tail_certified=True,
        )

    R = W.box_radius
    gaps = energy_gaps(ctx, t, j, integer_grid(r_max * R, ctx.n))
    even = W.is_even()

    def ring_sums(size: int, odd: bool):
        """``_chain_series`` over the ``size``-node ring, or its odd nodes.

        When ``W`` is even the stencil and ``gaps`` are real, so the chain at
        node ``size - k`` (``conj(zeta)``, conjugate weight) is the conjugate
        of the chain at node ``k``: only ``k <= size/2`` run, pairs at weight
        2 and the self-conjugate ``k = 0`` and ``k = size/2`` at weight 1,
        and the real part of the sums is kept.  The pairing is by index, since
        ``Im zeta`` at ``k = size/2`` is rounding dust, not zero.
        """
        zeta, weights = ContourSpec(center, rho, size).nodes()
        idx = np.arange(1 if odd else 0, size, 2 if odd else 1)
        fold = np.ones(idx.size)
        if even:
            idx = idx[2 * idx <= size]
            fold = np.where((idx == 0) | (2 * idx == size), 1.0, 2.0)
        cols = _chain_series(gaps, W, r_max, zeta[idx], fold * weights[idx])
        return cols.real if even else cols

    col_lo = ring_sums(count, odd=False)
    for attempt in range(QUAD_MAX_DOUBLINGS + 1):
        # The 2N ring holds the N ring as its even nodes at half the weight,
        # so only its odd nodes are evaluated.  The eigenvalue terms are read
        # off each ring's combined columns.
        col_hi = 0.5 * col_lo + ring_sums(2 * count, odd=True)
        g_hi = _eigenvalue_terms(W, col_hi)
        lam_gap_lo = complex(np.sum(_eigenvalue_terms(W, col_lo)))
        lam_gap_hi = complex(np.sum(g_hi))
        total_lo = col_lo.sum(axis=0)
        total_hi = col_hi.sum(axis=0)
        center_idx = tuple(s // 2 for s in total_hi.shape)
        total_lo[center_idx] += 1.0
        total_hi[center_idx] += 1.0

        lam_denom = max(abs(lam_gap_hi), 1e-30)
        col_denom = max(float(np.abs(total_hi).sum()), 1e-30)
        err_lam = abs(lam_gap_lo - lam_gap_hi) / lam_denom
        err_col = float(np.abs(total_lo - total_hi).sum()) / col_denom
        # Zero by construction on a folded ring; guards the ring of an odd W.
        err_imag = abs(lam_gap_hi.imag) / lam_denom
        quad_err = max(err_lam, err_col, err_imag)
        if quad_err <= QUAD_RTOL:
            break
        if attempt == QUAD_MAX_DOUBLINGS:
            raise NumericalFailure(
                f"contour quadrature did not settle: disagreement {quad_err:.3e} "
                f"between {count} and {2 * count} nodes (tolerance {QUAD_RTOL:.1e})"
            )
        count *= 2
        col_lo = col_hi

    g_terms = tuple(complex(v) for v in g_hi[1:])
    lam_gap = float(lam_gap_hi.real)
    G_norms = tuple(float(np.abs(col_hi[r]).sum()) for r in range(1, r_max + 1))

    # Tail control: fully certified in the high-energy regime where the
    # step-gain exponents are valid and the coupling is small against
    # k^gamma2; otherwise an empirical geometric estimate, clearly flagged.
    exps = exponents(ctx)
    w_norm = star_norm(W)
    x_lam = 4.0 * w_norm * k ** (-exps.gamma2) if exps.gamma2 > 0 else math.inf
    x_col = 2.0 * w_norm * k ** (-exps.gamma2) if exps.gamma2 > 0 else math.inf
    certified = exps.valid and k >= K0 and x_lam <= 0.25
    if certified:
        tail_lam = rho * x_lam ** (r_max + 1) / ((r_max + 1) * (1.0 - x_lam))
        tail_col = x_col ** (r_max + 1) / (1.0 - x_col)
    else:
        tail_lam, _ = _empirical_tail([abs(v) for v in g_terms])
        tail_col, _ = _empirical_tail(list(G_norms))

    return BlochEigenpair(
        **vars(a),
        lam_gap=lam_gap,
        proj_column=PeriodicFunction.from_box(total_hi),
        g_terms=g_terms,
        G_norms=G_norms,
        tail_bound=tail_lam,
        tail_bound_column=tail_col,
        tail_certified=certified,
        quad_err=quad_err,
        quad_nodes=2 * count,
    )


# ---------------------------------------------------------------------------
# window oracle
# ---------------------------------------------------------------------------

def diagonalize_oracle(
    ctx: ModelContext,
    W: PeriodicFunction,
    t,
    j,
    window: Optional[int] = None,
    isolation: float = -math.inf,
) -> BlochEigenpair:
    """Eigenpair from a shift-invert eigensolve on a window around the anchor.

    The window (sup-norm radius ``ceil(2k)`` by default) contains every site
    whose unperturbed energy can approach the spectral window, so exactly one
    eigenvalue of the windowed operator must fall inside ``(c - rho, c + rho)``;
    anything else raises ``ResonanceError``.  Where that default exceeds
    ``ORACLE_SITES_MAX`` sites and ``||W||_* < rho``, the window is clipped to
    the largest radius within the budget once ``(t, j)`` passes admission:
    its slack condition puts every other gap at ``>= 2 rho``, so the Weyl
    bound below isolates the band on any window that holds ``j``, and the
    window only sets the accuracy of the column, which the leak tail reports.

    ``isolation`` is a lower bound on ``|mu|`` over every eigenvalue ``mu``
    but the band's of the shift-stabilized window matrix
    ``H = diag(mu_i - c) + W``.  Where ``||W||_* < rho`` the oracle raises it
    to its own Weyl bound, ``min |gap| - ||W||_*`` over the sites other than
    the anchor, since ``||PWP|| <= ||W||_*``.  When the bound reaches ``rho``,
    shift-invert at the centre solves for the one eigenvalue nearest ``c``,
    the band's if it lies inside, started at the anchor site; otherwise for
    the two nearest, started at the anchor site plus a fixed seeded random
    vector, so that the Krylov space also reaches eigenvectors orthogonal to
    the anchor site and the count is settled.  The pair records the bound it
    used, or the ``|mu|`` of the second eigenvalue it measured; by Weyl
    again, a later ``W`` on the same window that differs by ``d`` in star
    norm may pass that less ``d`` (``fixedpoint.iterate`` does).

    ``H`` is factored once: as a dense array by LAPACK when its stored
    entries reach ``ORACLE_DENSE_FRACTION`` of ``sites**2`` (twice that for a
    complex ``H``, whose entries are twice as large) and the array fits
    ``ORACLE_DENSE_BYTES``, otherwise by SuperLU with a minimum-degree
    ordering of its symmetric pattern.  ``H`` is real (float64) when every
    coefficient of ``W`` is real (``W`` even, ``H`` real symmetric) and ARPACK
    runs Lanczos; otherwise ``H`` is complex Hermitian and ARPACK runs
    Arnoldi.  The eigenvalue is reported as a gap from ``c`` via a Rayleigh
    quotient over ``H``, which restores the accuracy lost to the huge
    absolute scale of the raw eigensolve.  A singular factorisation and any
    other ARPACK failure raise ``NumericalFailure``, an eigensolve that does
    not converge ``NonConvergence``.
    """
    # Imported here so the series path never loads scipy (~0.3 s, ~28 MiB).
    import scipy.linalg
    import scipy.sparse
    import scipy.sparse.linalg

    a = anchor(ctx, t, j)
    t, j, k, center, rho = a.t, a.j, a.k, a.center, a.rho
    if not W.is_real_valued():
        raise ContractError("perturbation must be real-valued")
    if W.get((0,) * ctx.n) != 0:
        raise ContractError("oracle expects a zero-mean perturbation")
    w_star = star_norm(W)
    M = ctx.m_lin(k) if window is None else int(window)
    if window is None and (2 * M + 1) ** ctx.n > ORACLE_SITES_MAX and w_star < rho:
        require_nonresonant(ctx, t, j)
        M = 0
        while (2 * M + 3) ** ctx.n <= ORACLE_SITES_MAX:
            M += 1
    full = 2 * M + 1
    sites = full ** ctx.n
    if sites > ORACLE_SITES_MAX:
        raise ConfigError(f"oracle window of {sites} sites exceeds {ORACLE_SITES_MAX}")
    if sites < 4:
        raise ConfigError(f"oracle window of {sites} sites is below the 4 the eigensolve needs")
    offsets = integer_grid(M, ctx.n).reshape(-1, ctx.n)
    gaps = energy_gaps(ctx, t, j, offsets)
    center_index = sites // 2
    if w_star < rho:
        # Weyl: every eigenvalue but the band's lies within ||W||_* of a gap
        # other than the anchor's zero one.
        isolation = max(isolation, float(np.delete(np.abs(gaps), center_index).min()) - w_star)
    nev = 1 if isolation >= rho else 2

    # Sites in row-major order, the anchor in the middle; H[i, k] = w_{d_i - d_k}.
    lin = np.arange(sites).reshape((full,) * ctx.n)
    even = W.is_even()
    dtype = np.dtype(float if even else complex)    # H is real symmetric when W is even
    stencil = [(c.real if even else c, dst, src) for c, dst, src in _stencil(W, full)]
    stored = sites + sum(lin[dst].size for _, dst, _ in stencil)
    dense = (
        stored >= ORACLE_DENSE_FRACTION * (dtype.itemsize // 8) * sites * sites
        and sites * sites * dtype.itemsize <= ORACLE_DENSE_BYTES
    )
    if dense:
        H = np.zeros((sites, sites), dtype=dtype)
        np.fill_diagonal(H, gaps)
        for c, dst, src in stencil:
            H[lin[dst].ravel(), lin[src].ravel()] = c
    else:
        rows, cols, data = [lin.ravel()], [lin.ravel()], [gaps.astype(dtype)]
        for c, dst, src in stencil:
            rows.append(lin[dst].ravel())
            cols.append(lin[src].ravel())
            data.append(np.full(rows[-1].size, c, dtype=dtype))
        H = scipy.sparse.csc_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(sites, sites),
        )

    if len(W):
        if dense:
            # lu_factor only warns on an exactly zero pivot; that is a failure here.
            with warnings.catch_warnings():
                warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
                try:
                    factors = scipy.linalg.lu_factor(H, check_finite=False)
                except scipy.linalg.LinAlgWarning as exc:
                    raise NumericalFailure(f"oracle factorisation failed: {exc}") from exc
            solve = functools.partial(scipy.linalg.lu_solve, factors, check_finite=False)
        else:
            # H has a symmetric pattern, so order by minimum degree on H + H^T and
            # prefer diagonal pivots: at n = 3 that halves the fill of the default
            # COLAMD ordering (see ORACLE_SITES_MAX).  Threshold pivoting stays on.
            try:
                solve = scipy.sparse.linalg.splu(
                    H,
                    permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.1,
                    options=dict(SymmetricMode=True),
                ).solve
            except RuntimeError as exc:
                raise NumericalFailure(f"oracle factorisation failed: {exc}") from exc
        inverse = scipy.sparse.linalg.LinearOperator(H.shape, matvec=solve, dtype=H.dtype)
        # A fixed start vector keeps ARPACK off its random one, so runs repeat.
        # The two-eigenvalue solve also starts off the anchor site, so that it
        # sees eigenvectors that do not overlap that site.
        start = np.zeros(sites, dtype=H.dtype)
        if nev == 2:
            start += np.random.default_rng(0).standard_normal(sites)
        start[center_index] += 1.0
        try:
            # A Lanczos basis of 4 converges the band alone in 9 solves on
            # the nonlinear l = 1 W, against 21 at scipy's default of 20; the
            # pair keeps the default.
            vals, vecs = scipy.sparse.linalg.eigsh(
                H, k=nev, sigma=0.0, v0=start, OPinv=inverse, ncv=4 if nev == 1 else None
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NonConvergence(f"oracle eigensolve: {exc}") from exc
        except scipy.sparse.linalg.ArpackError as exc:
            raise NumericalFailure(f"oracle eigensolve failed: {exc}") from exc
    else:
        # H = diag(gaps) is singular at the shift; its eigenvectors are sites.
        nearest = np.argsort(np.abs(gaps), kind="stable")[:nev]
        vals = gaps[nearest]
        vecs = np.zeros((sites, nev), dtype=complex)
        vecs[nearest, np.arange(nev)] = 1.0
    inside = np.abs(vals) < rho
    if not inside.any():
        raise ResonanceError(
            f"no eigenvalue inside ({center - rho:.6g}, {center + rho:.6g}) "
            f"on the window of radius {M}"
        )
    if nev == 2:
        # |mu| of the eigenvalue outside; below rho if both are inside
        isolation = float(np.abs(vals).max())
    if isolation < rho:
        raise ResonanceError(
            "two or more eigenvalues inside the spectral window; "
            "the band is not isolated here"
        )
    phi = vecs[:, np.argmax(inside)]
    phi = phi / np.linalg.norm(phi)

    # One Rayleigh step on the stabilized matrix: the raw eigenvalue carries
    # an absolute error ~eps * ||H||, the quotient only ~eps * |lam_gap|-ish.
    lam_gap = float(np.real(np.vdot(phi, H @ phi)))

    column = PeriodicFunction.from_box(phi.reshape((full,) * ctx.n)).scale(
        np.conj(phi[center_index])
    )

    boundary = np.max(np.abs(offsets), axis=1) == M
    leak = float(np.max(np.abs(phi[boundary]))) if boundary.any() else 0.0
    tail = w_star * leak

    return BlochEigenpair(
        **vars(a),
        lam_gap=lam_gap,
        proj_column=column,
        backend="diag",
        tail_bound=tail,
        tail_bound_column=tail,
        isolation=isolation,
    )
