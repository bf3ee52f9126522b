"""Spectral data for one isolated band of a perturbed lattice operator.

The unperturbed operator is diagonal in the plane-wave basis with symbol
``mu_i = |t + i|^{2l}``; a periodic perturbation ``W`` couples sites through
its Fourier coefficients.  For an admitted quasi-momentum the eigenvalue
near ``c = k^{2l}`` and the matching spectral-projector column are recovered
from a contour integral around ``c``, expanded order by order in ``W``.

Two backends produce the same quantities:

* ``series_eigenpair`` evaluates the expansion exactly on the infinite
  lattice.  Each resolvent chain that returns to the anchor site is reduced
  to scalar weights, and the off-anchor propagation applies ``W`` as a
  stencil of shifted slices on windows that hold its exact support, so no
  lattice truncation enters; the only approximations are the series order
  ``r_max`` and the trapezoid contour quadrature, both of which are
  controlled and reported.  All nodes of a contour ring are evaluated in one
  pass with the nodes on a leading axis, in blocks of bounded memory, and a
  doubled ring reuses the sums of the ring it contains.  When ``W`` is even
  (every coefficient real) the chain at ``conj(zeta)`` is the conjugate of
  the chain at ``zeta``, so only the half ring with ``Im zeta >= 0`` runs and
  the ring sum is the real part of its doubly weighted sum.
* ``diagonalize_oracle`` builds the operator as a sparse matrix on a finite
  window, finds the two eigenvalues nearest ``c`` by shift-invert on one
  symmetric-ordered sparse LU (Lanczos when ``W`` is even, so the matrix is
  real symmetric; Arnoldi when it is complex Hermitian), and polishes the
  band eigenvalue with a shift-stabilized Rayleigh quotient.  It is
  window-limited but entirely independent of the series algebra.  Dense
  cross-checks of both backends live in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ContractError, NonConvergence, NumericalFailure, ResonanceError
from .lattice import (
    LatticeIndex,
    ModelContext,
    PeriodicFunction,
    integer_grid,
    momentum,
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
# Byte budget of the chain vectors of one block of contour nodes, so the
# working set of a band solve does not grow with grid size times node count.
NODE_BLOCK_BYTES = 2 * 2**20
# Resource guard for the oracle window, in lattice sites.  Memory is bounded
# by the fill of the sparse LU factor, not by the non-zeros of the window
# operator: at n = 3 with a cosine potential (real, 8 bytes an entry), 2197
# sites factor into 0.21 M entries (0.01 s), 9261 into 2.2 M (16.5 MiB,
# 0.5 s; peak process RSS 116 MiB) and 24389 into 10.4 M (79 MiB, 11 s; peak
# RSS 299 MiB); one core of a 2-vCPU host.
ORACLE_SITES_MAX = 12000


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
class BlochEigenpair:
    """One isolated eigenvalue and its projector column at the anchor site.

    ``lam_gap`` is the accurately-resolved difference ``lam - center``; use it
    instead of ``lam`` whenever small differences matter, since ``lam`` itself
    is dominated by the huge unperturbed energy.  ``proj_column`` stores the
    projector column in offset coordinates: coefficient ``d`` belongs to
    lattice site ``j + d``, so ``proj_column.get(0)`` is the diagonal entry
    ``E_jj``.  ``quad_err`` and ``quad_nodes`` are the relative disagreement
    and the node count of the accepted contour ring (0 where none ran).
    """

    lam: float
    lam_gap: float
    j: LatticeIndex
    t: Tuple[float, ...]
    k: float
    center: float
    rho: float
    proj_column: PeriodicFunction
    g_terms: Tuple[complex, ...] = ()
    G_norms: Tuple[float, ...] = ()
    backend: str = "series"
    tail_bound: float = math.inf
    tail_bound_column: float = math.inf
    tail_certified: bool = False
    quad_err: float = 0.0
    quad_nodes: int = 0

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
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted sums of the expansion over the given contour nodes.

    Returns ``(g_terms, columns)`` where ``g_terms[r]`` is the order-r
    eigenvalue correction and ``columns[r]`` the order-r projector column on
    the offset grid (r = 0 slot unused).  Every resolvent chain is split at
    its returns to the anchor: the inter-return segments give the scalar
    weights ``a_b = (W (S W)^b)_{anchor,anchor}``, the outward tail gives the
    vectors ``(S W)^c e_anchor``, and both are assembled with the loop
    generating function ``log(1 + g * sum_b (-1)^b a_b)`` for the eigenvalue.

    Nodes sit on a leading axis and are processed in blocks whose chain
    vectors fit ``NODE_BLOCK_BYTES``; ``W`` is applied as a sum of shifted
    slices, one per nonzero coefficient.
    """
    grid_shape = gaps.shape
    R = W.box_radius
    full = grid_shape[0] // 2
    anchor_idx = (Ellipsis,) + (full,) * gaps.ndim
    orders = np.arange(r_max + 1)
    sign = np.where(orders % 2, -1.0, 1.0)            # (-1)^r
    lag = orders[:, None] - orders[None, :]           # lag[r, c] = r - c

    # Chain step b maps us[b], held within sup-norm b*R of the anchor, into
    # the window of radius (b+1)*R; nothing reaches past it, so each step
    # works on its own window and drops nothing.
    radii = [(b + 1) * R for b in range(r_max)]
    windows = [(Ellipsis,) + (slice(full - rad, full + rad + 1),) * gaps.ndim for rad in radii]
    stencils = [_stencil(W, 2 * rad + 1) for rad in radii]

    g_terms = np.zeros(r_max + 1, dtype=complex)
    columns = np.zeros((r_max + 1, gaps.size), dtype=complex)

    # First chain application is just the kernel centred on the anchor;
    # embedding it directly keeps the return weight a_0 = W_jj exactly zero
    # for zero-mean input, where a transform-based convolution of the delta
    # would backfill it with dust that the contour integral then reports as
    # a spurious order-1 eigenvalue term.
    y_first = W.to_box(R)

    block = max(1, NODE_BLOCK_BYTES // ((r_max + 1) * gaps.size * 16))
    for lo in range(0, len(zeta_nodes), block):
        zeta = zeta_nodes[lo:lo + block]
        w = weights[lo:lo + block]
        nodes = zeta.size
        g = -1.0 / zeta
        S = 1.0 / (gaps - zeta.reshape((nodes,) + (1,) * gaps.ndim))
        S[anchor_idx] = 0.0

        # Outward chain us[c] = (S W)^c e_anchor and anchor-return weights.
        us = np.zeros((r_max + 1, nodes) + grid_shape, dtype=complex)
        us[0][anchor_idx] = 1.0
        a = np.zeros((nodes, r_max), dtype=complex)
        for b, (rad, win, stencil) in enumerate(zip(radii, windows, stencils)):
            if b == 0:
                y = y_first
            else:
                u = us[b][win]
                y = np.zeros(u.shape, dtype=complex)
                for c, dst, src in stencil:
                    y[dst] += c * u[src]
            a[:, b] = y[(Ellipsis,) + (rad,) * gaps.ndim]
            np.multiply(S[win], y, out=us[b + 1][win])

        # Loop weights D_m: all ways to spend m couplings on closed returns.
        D = np.zeros((nodes, r_max + 1), dtype=complex)
        D[:, 0] = 1.0
        for m in range(1, r_max + 1):
            D[:, m] = g * np.einsum("nb,nb->n", a[:, :m], D[:, m - 1::-1])

        # columns[r] += w (-1)^(r+1) g sum_c D_{r-c} us[c], one contraction
        # over (c, node).
        coef = np.where(lag >= 0, D[:, np.maximum(lag, 0)], 0.0)
        coef[:, 0] = 0.0
        coef *= (w * g)[:, None, None] * -sign[:, None]
        columns += np.tensordot(
            coef.transpose(1, 2, 0), us.reshape(r_max + 1, nodes, -1), axes=2
        )

        # Eigenvalue terms from powers Av of the return-weight polynomial,
        # truncated products through the Toeplitz matrix of a.
        taps = lag[:r_max, :r_max]
        toeplitz = np.where(taps >= 0, a[:, np.maximum(taps, 0)], 0.0)
        Av = a
        wg = w
        for v in range(1, r_max + 1):
            if v > 1:
                Av = np.einsum("nsi,ni->ns", toeplitz, Av)
            wg = wg * g
            g_terms[v:] += (wg @ Av[:, :r_max + 1 - v]) / v
    return sign * g_terms, columns.reshape((r_max + 1,) + grid_shape)


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
            lam=center, lam_gap=0.0, j=j, t=t, k=k, center=center, rho=rho,
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
        g, cols = _chain_series(gaps, W, r_max, zeta[idx], fold * weights[idx])
        return (g.real, cols.real) if even else (g, cols)

    g_lo, col_lo = ring_sums(count, odd=False)
    for attempt in range(QUAD_MAX_DOUBLINGS + 1):
        # The 2N ring holds the N ring as its even nodes at half the weight,
        # so only its odd nodes are evaluated.
        g_odd, col_odd = ring_sums(2 * count, odd=True)
        g_hi = 0.5 * g_lo + g_odd
        col_hi = 0.5 * col_lo + col_odd
        lam_gap_lo = complex(np.sum(g_lo))
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
        g_lo, col_lo = g_hi, col_hi

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
        lam=float(center + lam_gap),
        lam_gap=lam_gap,
        j=j,
        t=t,
        k=k,
        center=center,
        rho=rho,
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
# sparse window oracle
# ---------------------------------------------------------------------------

def diagonalize_oracle(
    ctx: ModelContext,
    W: PeriodicFunction,
    t,
    j,
    window: Optional[int] = None,
) -> BlochEigenpair:
    """Eigenpair from a sparse eigensolve on a window around the anchor.

    The window (sup-norm radius ``ceil(2k)`` by default) contains every site
    whose unperturbed energy can approach the spectral window, so exactly one
    eigenvalue of the windowed operator must fall inside ``(c - rho, c + rho)``;
    anything else raises ``ResonanceError``.  Where that default exceeds
    ``ORACLE_SITES_MAX`` sites and ``||W||_* < rho``, the window is clipped to
    the largest radius within the budget once ``(t, j)`` passes admission:
    the slack condition puts every other gap at ``>= 2 rho`` and
    ``||PWP|| <= ||W||_*``, so by Weyl's inequality exactly one eigenvalue
    lies inside on any window that holds ``j``.  The isolation count then
    rests on the admission screen, and the window only sets the accuracy of
    the column, which the leak tail reports.  Shift-invert at the centre of
    the shift-stabilized matrix ``H = diag(mu_i - c) + W`` returns its two
    eigenvalues nearest ``c``, which settles that count exactly.  ``H`` is
    factored once by SuperLU with a minimum-degree ordering of its symmetric
    pattern; ARPACK then runs Lanczos when every coefficient of ``W`` is real
    (``W`` even, ``H`` real symmetric) and Arnoldi when ``H`` is complex
    Hermitian.  The eigenvalue is reported as a gap from ``c`` via a Rayleigh
    quotient over ``H``, which restores the accuracy lost to the huge
    absolute scale of the raw eigensolve.  A singular factorisation raises
    ``NumericalFailure`` and an eigensolve that does not converge
    ``NonConvergence``.
    """
    # Imported here so the series path never loads scipy (~0.3 s, ~28 MiB).
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

    # Sites in row-major order, the anchor in the middle; H[i, k] = w_{d_i - d_k}.
    lin = np.arange(sites).reshape((full,) * ctx.n)
    rows, cols, data = [lin.ravel()], [lin.ravel()], [gaps.astype(complex)]
    for c, dst, src in _stencil(W, full):
        rows.append(lin[dst].ravel())
        cols.append(lin[src].ravel())
        data.append(np.full(rows[-1].size, c, dtype=complex))
    values = np.concatenate(data)
    if W.is_even():
        values = values.real    # H is real symmetric
    H = scipy.sparse.csc_matrix(
        (values, (np.concatenate(rows), np.concatenate(cols))), shape=(sites, sites)
    )

    if len(W):
        # H has a symmetric pattern, so order by minimum degree on H + H^T and
        # prefer diagonal pivots: at n = 3 that halves the fill of the default
        # COLAMD ordering (see ORACLE_SITES_MAX).  Threshold pivoting stays on.
        try:
            lu = scipy.sparse.linalg.splu(
                H,
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.1,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise NumericalFailure(f"oracle factorisation failed: {exc}") from exc
        inverse = scipy.sparse.linalg.LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype)
        # A fixed start vector keeps ARPACK off its random one, so runs repeat.
        start = np.zeros(sites, dtype=H.dtype)
        start[center_index] = 1.0
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(H, k=2, sigma=0.0, v0=start, OPinv=inverse)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise NonConvergence(f"oracle eigensolve: {exc}") from exc
    else:
        # H = diag(gaps) is singular at the shift; its eigenvectors are sites.
        nearest = np.argsort(np.abs(gaps), kind="stable")[:2]
        vals = gaps[nearest]
        vecs = np.zeros((sites, 2), dtype=complex)
        vecs[nearest, [0, 1]] = 1.0
    inside = np.abs(vals) < rho
    if not inside.any():
        raise ResonanceError(
            f"no eigenvalue inside ({center - rho:.6g}, {center + rho:.6g}) "
            f"on the window of radius {M}"
        )
    if inside.all():
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
        lam=float(center + lam_gap),
        lam_gap=lam_gap,
        j=j,
        t=t,
        k=k,
        center=center,
        rho=rho,
        proj_column=column,
        backend="diag",
        tail_bound=tail,
        tail_bound_column=tail,
    )


# ---------------------------------------------------------------------------
# closed-form low-order oracles and evaluation helpers
# ---------------------------------------------------------------------------

def second_order_eigenvalue_shift(ctx: ModelContext, W: PeriodicFunction, t, j) -> float:
    """sum_q |w_q|^2 / (mu_j - mu_{j+q}): the leading eigenvalue correction."""
    offsets, amps = W.nonzero()
    gaps = energy_gaps(ctx, t, j, offsets)
    return float(math.fsum(-(abs(a) ** 2) / g for a, g in zip(amps, gaps)))


def first_order_column(ctx: ModelContext, W: PeriodicFunction, t, j) -> PeriodicFunction:
    """Offset d -> w_d / (mu_j - mu_{j+d}): the leading projector column."""
    offsets, amps = W.nonzero()
    gaps = energy_gaps(ctx, t, j, offsets)
    return PeriodicFunction(
        ctx.n, {tuple(q): -a / g for q, a, g in zip(offsets.tolist(), amps.tolist(), gaps)}
    )


@dataclass(frozen=True)
class GradientCheck:
    """Finite-difference eigenvalue gradient against the free-wave formula."""

    gradient: np.ndarray        # central differences of lam in t
    free_gradient: np.ndarray   # 2l * p * |p|^(2l-2)
    step: float
    deviation: float            # sup-norm difference of the two gradients
    relative: float             # deviation / |free_gradient|


def eigenvalue_gradient(
    ctx: ModelContext,
    W: PeriodicFunction,
    t,
    j,
    step: float = 1e-3,
) -> GradientCheck:
    """Quasi-momentum gradient of the band eigenvalue, by central differences.

    The eigenvalue is re-solved at ``t + step * e_s`` and ``t - step * e_s``
    for each axis, keeping the lattice index fixed.  At high energy the free
    part dominates, so the result should track ``2l * p * |p|^(2l-2)``; the
    spectral corrections and the quadratic differencing error both sit many
    orders below that leading term.
    """
    t0 = np.asarray(t, dtype=float)
    if t0.shape != (ctx.n,):
        raise ConfigError(f"quasi-momentum shape {t0.shape} does not match n={ctx.n}")
    if not 0.0 < step < math.inf:
        raise ConfigError(f"step must be finite and > 0, got {step}")
    grad = np.zeros(ctx.n)
    for s in range(ctx.n):
        shift = np.zeros(ctx.n)
        shift[s] = step
        hi = series_eigenpair(ctx, W, t0 + shift, j)
        lo = series_eigenpair(ctx, W, t0 - shift, j)
        grad[s] = (hi.lam - lo.lam) / (2.0 * step)
    p = momentum(j, t0)
    free = 2.0 * ctx.l * p * float(p @ p) ** (ctx.l - 1)
    deviation = float(np.max(np.abs(grad - free)))
    scale = float(np.linalg.norm(free))
    return GradientCheck(
        gradient=grad,
        free_gradient=free,
        step=float(step),
        deviation=deviation,
        relative=deviation / scale if scale > 0.0 else math.inf,
    )


def periodic_eigenfunction(pair: BlochEigenpair, points) -> np.ndarray:
    """Evaluate sum_d col_d * exp(i <t + j + d, x>) at physical points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    offsets, values = pair.proj_column.nonzero()
    return np.exp(1j * (pts @ (momentum(pair.j, pair.t) + offsets).T)) @ values
