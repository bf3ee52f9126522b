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
  truncation enters; the only approximations are the series order and the
  trapezoid contour quadrature, both of which are controlled and reported.
  Where the tail is certified its bound is known before any chain runs, and
  the series stops at the first order whose bound is within
  ``ctx.tol_fp_value``; ``ctx.r_max`` caps it, and every order up to the cap
  runs where the tail is only estimated.  All nodes of a contour ring are
  evaluated in one pass with the nodes on a leading axis, in blocks of
  bounded memory; the first pass also
  weighs its nodes into the N ring that the 2N ring contains, and a doubled
  ring reuses the sums of the ring it contains.  When ``W`` is even (every
  coefficient real) the chain at ``conj(zeta)`` is the conjugate of the
  chain at ``zeta``, so only the half ring with ``Im zeta >= 0`` runs and
  the ring sum is the real part of its doubly weighted sum.
* ``diagonalize_oracle`` builds the operator on a finite window, and one
  finder, a fixed-shift correction iteration on a sparse LU factor (its own
  or an earlier pair's), finds every band it returns.  Where no Weyl bound
  proves the band isolated, ARPACK only measures the isolation: a second
  eigenvalue, to the relative accuracy ``ISOLATION_RTOL``, whose band
  vector starts the finder.  It is window-limited but independent of the
  series algebra; dense ``eigh`` cross-checks of both backends live in the
  tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

# Nodes of the first contour ring, run in one pass with the 2N ring; the ring
# doubles from there until two consecutive resolutions agree to QUAD_RTOL.
QUAD_NODES = 16
# Relative agreement demanded between two consecutive quadrature resolutions.
QUAD_RTOL = 1e-10
# How many times the node count may double (to 1024) before giving up.  Each
# doubling squares the trapezoid aliasing factor on a circle, so a handful of
# rounds separates slow-but-convergent geometry from a genuine failure.
QUAD_MAX_DOUBLINGS = 5
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
# Resource guard for the oracle window, in lattice sites; a diag fixed point
# factors one window, its seed's.  Memory is bounded by the fill of the LU
# factor: at n = 3 with a cosine potential (real, 8 bytes an entry), 2197
# sites factor into 0.21 M entries (0.01 s), 9261 into 2.2 M (16.5 MiB, 0.5 s)
# and 24389 into 10.4 M (79 MiB, 11 s; peak RSS 299 MiB) on one 2-vCPU core.
ORACLE_SITES_MAX = 12000
# The oracle's band finder stops once its correction to the unit vector is
# this small in 2-norm (each is about 60x smaller than the one before on the
# l = 1 desks), or gives up after CONTINUE_STEPS_MAX steps.
CONTINUE_TOL = 1e-14
CONTINUE_STEPS_MAX = 20
# Relative accuracy asked of ARPACK's two-eigenvalue solve, which only
# measures the isolation; the band finder takes its band vector to rounding.
# At 1e-6 the l1_k8 and l1_k10 seeds apply the factor 21 and 38 times (55 and
# 72 at tol = 0), and the isolation moves by 2.6e-13 relative.
ISOLATION_RTOL = 1e-6


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
    ``g_terms`` and ``G_norms`` hold one entry per series order run, and
    ``tail_bound``/``tail_bound_column`` bound what the orders past the last
    one add to ``lam_gap`` and the column; on the series backend the column's
    bound also holds the star norm that its pruning at ``PRUNE_TOL`` drops.
    ``quad_err`` is the relative disagreement of the accepted contour ring
    and ``quad_nodes`` its node count; both are 0 where no ring ran.
    ``isolation`` is the oracle's lower bound on ``|mu|`` over the other
    eigenvalues ``mu`` of its shifted window operator, ``inverse`` the
    inverse it solved with, which a later ``diagonalize_oracle`` call may
    continue from (NaN and None on the series backend); no artifact writes them.
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
    inverse: object = field(default=None, repr=False, compare=False)

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
    axes forms ``y[x] = sum_q w_q u[x - q]``, dropping what leaves the box.
    The slices count from both ends of an axis, so they serve a box of any
    side larger than ``|q|_inf`` as well."""
    offsets, amps = W.nonzero()
    terms = []
    for q, c in zip(offsets.tolist(), amps.tolist()):
        if max(map(abs, q)) >= size:
            continue    # couples no two sites of the box
        dst = (Ellipsis,) + tuple(slice(max(qa, 0), min(qa, 0) or None) for qa in q)
        src = (Ellipsis,) + tuple(slice(max(-qa, 0), -max(qa, 0) or None) for qa in q)
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
    shifted slices, one per nonzero coefficient.  Each row of a 2-D
    ``weights`` gives its own sums, ``columns[r, row]``.
    """
    grid_shape = gaps.shape
    R = W.box_radius
    full = grid_shape[0] // 2

    # Chain step b maps the order-b vector, held within sup-norm b*R of the
    # anchor, into the window of radius (b+1)*R; nothing reaches past it, so
    # each step works on its own window and drops nothing.
    radii = [(b + 1) * R for b in range(r_max)]
    windows = [(Ellipsis,) + (slice(full - rad, full + rad + 1),) * gaps.ndim for rad in radii]
    stencil = _stencil(W, 2 * R + 1)    # its slices serve every window

    columns = np.zeros((r_max + 1,) + weights.shape[:-1] + grid_shape, dtype=complex)

    block = max(1, NODE_BLOCK_BYTES // (2 * gaps.size * 16))
    for lo in range(0, len(zeta_nodes), block):
        zeta = zeta_nodes[lo:lo + block]
        nodes = zeta.size
        R0 = 1.0 / (gaps - zeta.reshape((nodes,) + (1,) * gaps.ndim))

        # R0 (W R0)^r e_anchor = -(1/zeta) (R0 W)^r e_anchor: the chain runs on
        # u = (R0 W)^r e_anchor and the node weight absorbs -(1/zeta).
        coef = weights[..., lo:lo + block] / zeta
        u = np.zeros((nodes,) + grid_shape, dtype=complex)
        u[(Ellipsis,) + (full,) * gaps.ndim] = 1.0    # e_anchor
        for b, win in enumerate(windows):
            x = u[win]
            y = np.zeros(x.shape, dtype=complex)
            for c, dst, src in stencil:
                y[dst] += c * x[src]
            np.multiply(R0[win], y, out=u[win])
            coef = -coef
            sums = columns[b + 1][win]
            sums += (coef @ u[win].reshape(nodes, -1)).reshape(sums.shape)
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
    the eigenvalue afterwards).  Where the tail is certified (``k >= K0``,
    valid exponents and ``x = 4 ||W||_* k^-gamma2 <= 1/4``) the series runs
    the first order ``r <= ctx.r_max`` whose tails ``rho x^(r+1) / ((r+1)
    (1-x))`` and ``(x/2)^(r+1) / (1-x/2)`` are both within
    ``ctx.tol_fp_value``, or ``ctx.r_max`` if none is; otherwise it runs
    ``ctx.r_max`` orders and estimates the tail from them.

    The node count doubles until two consecutive quadrature resolutions
    agree to ``QUAD_RTOL`` (relative disagreements are
    dominated by trapezoid aliasing, which a doubling squares away, so the
    escalation terminates fast whenever the contour clears the nearest pole);
    one pass over the 2N ring gives the N ring's sums too, and each further
    doubled ring reuses the previous sums and evaluates only its odd nodes.
    When ``W`` is even only the upper half of each ring runs (``k = 0..N`` of
    the 2N ring, then the odd ``k < M/2`` of an M ring) and the sums are
    exactly real; an odd ``W`` runs every node, and ``Im lam_gap`` enters ``quad_err``.
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
    count = QUAD_NODES
    t, j, k, center, rho = a.t, a.j, a.k, a.center, a.rho

    if len(W) == 0:
        return BlochEigenpair(
            **vars(a), lam_gap=0.0,
            proj_column=PeriodicFunction.constant(ctx.n, 1.0), g_terms=(0.0 + 0.0j,) * ctx.r_max,
            G_norms=(0.0,) * ctx.r_max, tail_bound=0.0, tail_bound_column=0.0,
            tail_certified=True,
        )

    # Tail control: fully certified in the high-energy regime where the
    # step-gain exponents are valid and the coupling is small against
    # k^gamma2, and known before any chain runs, so the series stops at the
    # first order whose two tails are within tol_fp_value (r_max caps it);
    # otherwise all r_max orders run and an empirical geometric estimate,
    # clearly flagged, stands in.
    exps = exponents(ctx)
    w_norm = star_norm(W)
    x_lam = 4.0 * w_norm * k ** (-exps.gamma2) if exps.gamma2 > 0 else math.inf
    x_col = 2.0 * w_norm * k ** (-exps.gamma2) if exps.gamma2 > 0 else math.inf
    certified = exps.valid and k >= K0 and x_lam <= 0.25

    def tails(r: int) -> Tuple[float, float]:
        return (rho * x_lam ** (r + 1) / ((r + 1) * (1.0 - x_lam)),
                x_col ** (r + 1) / (1.0 - x_col))

    order = ctx.r_max
    if certified:
        order = next((r for r in range(1, order) if max(tails(r)) <= ctx.tol_fp_value), order)

    R = W.box_radius
    gaps = energy_gaps(ctx, t, j, integer_grid(order * R, ctx.n))
    even = W.is_even()

    def ring_sums(size: int, odd: bool):
        """``_chain_series`` over the ``size``-node ring, or its odd nodes.

        The whole ring runs on axis 1 with two weight rows, its own and the
        ``size/2`` ring's (twice its weight at even nodes, 0 at odd nodes).
        When ``W`` is even the stencil and ``gaps`` are real, so the chain at
        node ``size - k`` (``conj(zeta)``, conjugate weight) is the conjugate
        of the chain at node ``k``: only ``k <= size/2`` run, pairs at weight
        2 and the self-conjugate ``k = 0`` and ``k = size/2`` at weight 1
        (in both rows), and the real part of the sums is kept.  The pairing
        is by index, since ``Im zeta`` at ``k = size/2`` is rounding dust.
        """
        zeta, weights = ContourSpec(center, rho, size).nodes()
        idx = np.arange(1 if odd else 0, size, 2 if odd else 1)
        fold = np.ones(idx.size)
        if even:
            idx = idx[2 * idx <= size]
            fold = np.where((idx == 0) | (2 * idx == size), 1.0, 2.0)
        rows = np.stack([fold, 2.0 * fold * (idx % 2 == 0)])[: 1 if odd else 2]
        cols = _chain_series(gaps, W, order, zeta[idx], rows * weights[idx])
        return cols.real if even else cols

    col_hi, col_lo = np.moveaxis(ring_sums(2 * count, odd=False), 1, 0)
    g_lo = _eigenvalue_terms(W, col_lo)
    for attempt in range(QUAD_MAX_DOUBLINGS + 1):
        g_hi = _eigenvalue_terms(W, col_hi)
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
        # The doubled ring holds this one at half weight: its odd nodes run.
        count *= 2
        col_lo, g_lo = col_hi, g_hi
        col_hi = 0.5 * col_lo + ring_sums(2 * count, odd=True)[:, 0]

    g_terms = tuple(complex(v) for v in g_hi[1:])
    lam_gap = float(lam_gap_hi.real)
    G_norms = tuple(float(np.abs(col_hi[r]).sum()) for r in range(1, order + 1))

    if certified:
        tail_lam, tail_col = tails(order)
    else:
        tail_lam, _ = _empirical_tail([abs(v) for v in g_terms])
        tail_col, _ = _empirical_tail(list(G_norms))
    # The column drops the entries at or below PRUNE_TOL; their mass is part
    # of what it leaves out, as the orders past the last one are.
    column = PeriodicFunction.from_box(total_hi)
    pruned = float(np.abs(total_hi - column.to_box(order * R)).sum())

    return BlochEigenpair(
        **vars(a),
        lam_gap=lam_gap,
        proj_column=column,
        g_terms=g_terms,
        G_norms=G_norms,
        tail_bound=tail_lam,
        tail_bound_column=tail_col + pruned,
        tail_certified=certified,
        quad_err=quad_err,
        quad_nodes=2 * count,
    )


# ---------------------------------------------------------------------------
# window oracle
# ---------------------------------------------------------------------------

def _continued_band(apply, inverse, v: np.ndarray, rho: float):
    """The band's eigenvector of ``H`` found from ``v`` on ``inverse``, the
    factor of ``H`` or of an earlier window operator ``H_V``, or None where
    that proves nothing.

    A step subtracts ``inverse @ r`` from the unit ``v``, with the residual
    ``r = H v - theta v`` at the Rayleigh quotient ``theta``: a fixed-shift
    correction, which keeps the band's component and shrinks every other by
    a factor near ``|theta / mu|`` or less (on ``H``'s own factor the step
    is ``v - theta H^-1 v``, inverse iteration).  Once it is at rounding,
    ``|theta| + ||r|| < rho`` puts an eigenvalue in the spectral window, by
    the caller's isolation bound the band's, with eigenvector ``v``.  A
    vector that vanishes, such as ``e_anchor`` on ``H``'s own factor when
    ``theta = 0``, proves nothing.
    """
    for _ in range(CONTINUE_STEPS_MAX):
        norm = np.linalg.norm(v)
        if not norm > 0.0:
            return None
        v = v / norm
        hv = apply(v)
        theta = np.vdot(v, hv).real
        r = hv - theta * v
        step = inverse @ r
        v = v - step
        if np.linalg.norm(step) <= CONTINUE_TOL:
            return v if abs(theta) + np.linalg.norm(r) < rho else None
    return None


def diagonalize_oracle(
    ctx: ModelContext,
    W: PeriodicFunction,
    t,
    j,
    window: Optional[int] = None,
    isolation: float = -math.inf,
    previous: Optional[BlochEigenpair] = None,
) -> BlochEigenpair:
    """Eigenpair from a shift-invert solve on a window around the anchor.

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
    ``H = diag(mu_i - c) + W``; where ``||W||_* < rho`` the oracle raises it
    to its own Weyl bound, ``min |gap| - ||W||_*`` over the other sites.
    Once the bound reaches ``rho`` one finder, ``_continued_band``, finds the
    band: from the column of ``previous``, a pair from an earlier call on the
    same window, on the ``inverse`` of its factor, or else from
    ``H^-1 e_anchor`` on a fresh SuperLU factor of ``H`` (minimum-degree
    ordering of its symmetric pattern; real when ``W`` is even, complex
    Hermitian otherwise).  Where the bound is below ``rho``, or the finder
    proves nothing on the fresh factor, ARPACK's shift-invert at the centre
    measures the two eigenvalues nearest ``c`` (Lanczos when ``W`` is even,
    Arnoldi otherwise), started off the anchor site too (a fixed seeded
    random vector) so that the count is settled.  It only measures the
    isolation, so it asks for the relative accuracy ``ISOLATION_RTOL``, and
    the finder takes its band vector to rounding on the fresh factor: the
    l1_k8 and l1_k10 seeds apply the factor 21 and 38 times in ARPACK (55
    and 72 at ``tol = 0``), then one finder step.  Where
    the measured ``|mu|`` lies within that accuracy of ``rho``, or the
    finder proves nothing from the vector, the solve runs again at
    ``tol = 0`` and its vector is kept.  The pair records the bound
    it used, or the ``|mu|`` of the second eigenvalue it measured; a later
    ``W`` on the same window that differs by ``d`` in star norm may pass
    that less ``d`` (``fixedpoint.iterate`` does).  The eigenvalue is the
    Rayleigh quotient of the band's vector over ``H``, free of the raw
    solve's error at the huge absolute scale.  A singular factorisation or
    an ARPACK failure raises ``NumericalFailure``, an eigensolve that does
    not converge ``NonConvergence``.
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
    if w_star < rho:
        # Weyl: every eigenvalue but the band's lies within ||W||_* of a gap
        # other than the anchor's zero one.
        isolation = max(isolation, float(np.delete(np.abs(gaps), center_index).min()) - w_star)

    # Sites in row-major order, the anchor in the middle.  W couples two lines
    # along the last axis whose other coordinates differ by q through the
    # Toeplitz block T[b, a] = w_(q, a - b), held in bands[q + R].
    box = (full,) * ctx.n
    even = W.is_even()
    dtype = np.dtype(float if even else complex)    # H is real symmetric when W is even
    R = min(W.box_radius, full - 1)
    kernel = W.to_box(R).real if even else W.to_box(R)
    d = np.subtract.outer(np.arange(full), np.arange(full))
    bands = np.where(np.abs(d) <= R, kernel[..., R - np.clip(d, -R, R)], 0.0)
    blocks = [
        (bands[q], tuple(slice(max(c - R, 0), full + min(c - R, 0)) for c in q),
         tuple(slice(max(R - c, 0), full - max(c - R, 0)) for c in q))
        for q in np.ndindex(bands.shape[:-2]) if bands[q].any()
    ]

    def apply(v):
        x = v.reshape(box)
        y = gaps.reshape(box) * x
        for T, dst, src in blocks:
            y[dst] += x[src] @ T
        return y.ravel()

    e_anchor = (np.arange(sites) == center_index).astype(dtype)
    inverse = getattr(previous, "inverse", None)
    phi = None
    # A factor of another window does not apply, nor a complex one to a real H.
    if (isolation >= rho and inverse is not None and inverse.shape[0] == sites
            and inverse.dtype <= dtype):
        v = previous.proj_column.to_box(M).ravel()
        phi = _continued_band(apply, inverse, v.real if even else v, rho)
    if phi is None and not len(W):
        phi = e_anchor    # H = diag(gaps)
    elif phi is None:
        lin = np.arange(sites).reshape(box)
        rows, cols, data = [lin.ravel()], [lin.ravel()], [gaps.astype(dtype)]
        for T, dst, src in blocks:
            b, c = np.nonzero(T)
            rows.append(lin[dst][..., c].ravel())
            cols.append(lin[src][..., b].ravel())
            data.append(np.tile(T[b, c], rows[-1].size // b.size))
        coo = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
        H = scipy.sparse.csc_matrix(coo, shape=(sites, sites))
        # H has a symmetric pattern, so order by minimum degree on H + H^T and
        # prefer diagonal pivots: at n = 3 that halves the fill of the default
        # COLAMD ordering (see ORACLE_SITES_MAX).  Threshold pivoting stays on.
        try:
            lu = scipy.sparse.linalg.splu(
                H, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise NumericalFailure(f"oracle factorisation failed: {exc}") from exc

        def solve(b):    # a real factor takes a complex b part by part
            return lu.solve(b) if b.dtype == dtype else lu.solve(b.real) + 1j * lu.solve(b.imag)
        inverse = scipy.sparse.linalg.LinearOperator(H.shape, solve, matmat=solve, dtype=dtype)
        if isolation >= rho:
            # e_anchor itself has theta = 0 and a zero first step
            phi = _continued_band(apply, inverse, solve(e_anchor), rho)
    if phi is None:
        # A fixed start vector keeps ARPACK off its random one, so runs
        # repeat; it lies off the anchor site too, so that the solve sees
        # eigenvectors that do not overlap that site.
        start = np.random.default_rng(0).standard_normal(sites).astype(dtype) + e_anchor

        def measure(tol: float):
            """``|mu|`` of the larger of the two eigenvalues nearest the
            centre (below rho if both are inside) and the vector of one
            inside, or None where none is."""
            try:
                vals, vecs = scipy.sparse.linalg.eigsh(
                    H, k=2, sigma=0.0, v0=start, OPinv=inverse, tol=tol
                )
            except scipy.sparse.linalg.ArpackNoConvergence as exc:
                raise NonConvergence(f"oracle eigensolve: {exc}") from exc
            except scipy.sparse.linalg.ArpackError as exc:
                raise NumericalFailure(f"oracle eigensolve failed: {exc}") from exc
            inside = np.abs(vals) < rho
            return float(np.abs(vals).max()), vecs[:, np.argmax(inside)] if inside.any() else None

        isolation, phi = measure(ISOLATION_RTOL)
        # The measured |mu| holds to the solve's relative accuracy, so within
        # that of rho it settles nothing; there, and where the finder proves
        # nothing from the loose vector, the solve runs again to rounding.
        settled = phi is not None and isolation * (1.0 - ISOLATION_RTOL) >= rho
        phi = _continued_band(apply, inverse, phi, rho) if settled else None
        if phi is None:
            isolation, phi = measure(0.0)
        if phi is None:
            raise ResonanceError(
                f"no eigenvalue inside ({center - rho:.6g}, {center + rho:.6g}) "
                f"on the window of radius {M}"
            )
    if isolation < rho:
        raise ResonanceError(
            "two or more eigenvalues inside the spectral window; "
            "the band is not isolated here"
        )
    phi = phi / np.linalg.norm(phi)

    # One Rayleigh step on the stabilized matrix: the raw eigenvalue carries
    # an absolute error ~eps * ||H||, the quotient only ~eps * |lam_gap|-ish.
    lam_gap = float(np.real(np.vdot(phi, apply(phi))))

    column = PeriodicFunction.from_box(phi.reshape(box)).scale(np.conj(phi[center_index]))

    boundary = np.max(np.abs(offsets), axis=1) == M    # never empty: sites >= 4
    tail = w_star * float(np.max(np.abs(phi[boundary])))

    return BlochEigenpair(
        **vars(a),
        lam_gap=lam_gap,
        proj_column=column,
        backend="diag",
        tail_bound=tail,
        tail_bound_column=tail,
        isolation=isolation,
        inverse=inverse,
    )
