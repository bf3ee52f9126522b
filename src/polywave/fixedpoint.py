"""Self-consistent solutions of the cubic lattice eigenproblem.

The wave ansatz ``psi = A * column`` feeds back into the operator through
the effective perturbation ``W = V + sigma |A|^2 |column|^2``.  Iterating

    column  ->  W  ->  spectral column of (H0 + W)

from the plane-wave column ``1`` contracts whenever the coupling is small
against the contour radius, and every step is traced: perturbation
increments, eigenvalue estimates, column increments and truncation tails are
all kept so convergence quality can be audited afterwards.

All eigenvalues are carried as gaps from the unperturbed energy
``c = k^{2l}``; at the energies of interest ``c`` is large enough that the
absolute eigenvalue has no usable precision left.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .bloch import BlochEigenpair, _series_eigenpair, diagonalize_oracle
from .errors import ConfigError, ContractError, NumericalFailure
from .lattice import (
    ModelContext,
    PeriodicFunction,
    abs_squared,
    integer_grid,
    moduli,
    multiply,
    star_norm,
    truncate_support,
    zero_mean_shift,
)
from .nonres import (
    Anchor,
    anchor,
    contour_radius,
    energy_gaps,
    exponents,
    k1_threshold,
    require_nonresonant,
)

# Step increments below this multiple of machine noise on W carry no
# information about the contraction rate.  The second increment of a weakly
# coupled run already sits within a few decades of eps * ||W_0||, so the
# factor is kept small; the true jitter of the increment norm is far lower
# because the bare potential cancels exactly in every W difference.
NOISE_FLOOR_FACTOR = 10.0
# Step budget of the self-consistency loop; the weakly coupled l = 3 desks
# settle in two steps, so running out means the map is not contracting.
M_MAX = 50


@dataclass(frozen=True)
class TraceRow:
    """Audit record for one iteration of the self-consistency map."""

    m: int
    d_w: float            # ||W_m - W_{m-1}||_* including the mean part
    drift: float          # ||W~_m - V||_*, the zero-mean W_m's distance from V
    lam_gap: float        # lam - center, resolved to full precision
    d_col: float          # ||column_m - column_{m-1}||_1
    d_psi: float          # |A| * d_col
    tail: float           # star norm dropped by the support truncation
    w: PeriodicFunction   # the truncated W_m actually used


@dataclass(frozen=True)
class FixedPointTrace:
    rows: Tuple[TraceRow, ...]
    noise_floor: float


@dataclass(frozen=True)
class Wave(Anchor):
    """A wave ``psi`` and its eigenvalue, the pair that ``residual`` and the
    Newton confirmation check.

    ``lam_gap`` is ``lam - center``; with the mean of the effective
    perturbation included, ``lam = center + lam_gap`` solves the full
    nonlinear problem.
    """

    lam_gap: float
    psi: PeriodicFunction

    @property
    def lam(self) -> float:
        return float(self.center + self.lam_gap)


@dataclass(frozen=True)
class Solution(Wave):
    """A converged self-consistent wave with the band pair it came from.

    ``asym_remainder`` is what survives after removing the explicit cubic
    shift ``sigma |A|^2``; it decays with a known power of k and is the
    quantity of interest for high-energy asymptotics.  ``certified`` holds
    when the a-priori bounds do: ``k >= k1``, a contraction ratio below one
    and, on the series backend, a certified band tail, the backend being
    ``eigenpair.backend``.
    """

    eigenpair: BlochEigenpair
    w_mean: float
    sigma_abs2: float
    steps: int
    certified: bool

    @property
    def asym_remainder(self) -> float:
        return self.lam_gap - self.sigma_abs2


def effective_perturbation(
    ctx: ModelContext, column: PeriodicFunction
) -> Tuple[PeriodicFunction, float]:
    """``V + sigma |A|^2 |column|^2`` truncated to the working support, the
    effective perturbation of the wave ``A * column``; returns (W, tail).

    The cubic term is gauge invariant, so W depends on ``|A|^2`` and never on
    the phase of ``A``: a real column gives an exactly real W.
    """
    W_full = ctx.V + abs_squared(column).scale(ctx.sigma * abs(ctx.A) ** 2)
    return truncate_support(W_full, ctx.m_w())


def contraction_ratio(ctx: ModelContext, k: float) -> float:
    """A-priori contraction factor 8 |sigma| |A|^2 / rho of the map."""
    return 8.0 * abs(ctx.sigma) * abs(ctx.A) ** 2 / contour_radius(ctx, k)


def check_smallness(ctx: ModelContext, k: float) -> None:
    """Enforce |sigma| |A|^2 < k^(gamma0 - delta) for the active k."""
    bound = k ** (exponents(ctx).gamma0 - ctx.delta)
    small = abs(ctx.sigma) * abs(ctx.A) ** 2
    if not small < bound:
        raise ConfigError(
            f"|sigma||A|^2 = {small:.6g} must stay below k^(gamma0-delta) = {bound:.6g}"
        )


def iterate(
    ctx: ModelContext,
    t,
    j,
    backend: str = "series",
) -> Tuple[Optional[Solution], FixedPointTrace]:
    """Run the self-consistency loop on the projector column.

    Returns ``(solution, trace)``; the solution is ``None`` when the step
    budget ``M_MAX`` runs out before the increments drop below
    ``ctx.tol_fp_value``.  Admission of the quasi-momentum and the coupling
    smallness bound are enforced once, up front (admission is vacuous when
    the potential is absent, since then the effective perturbation never
    acquires off-diagonal terms).  The loop starts from the plane-wave
    column ``1``; each step forms ``W`` from the current column by
    ``effective_perturbation``, splits off its mean, solves the band on the
    zero-mean part and takes the band's projector column as the next one.
    Step ``m``'s increment ``d_w`` is measured against the previous step's
    ``W``, and its ``drift`` against ``V``; the wave ``A * column`` is formed
    once, at convergence.

    A step whose ``d_w`` is within the noise floor ``NOISE_FLOOR_FACTOR *
    eps * ||W_0||_*`` keeps the previous step's band pair (at ``m = 1`` the
    seed pair) instead of solving again: such a ``W`` differs from the last
    one by rounding alone, so the solve would only repeat it.  Its trace row
    still takes ``w_mean``, ``tail`` and ``d_w`` from its own ``W``, and its
    ``d_col`` reads 0.  The floor sits below ``tol_fp = 1e-12 * ||V||_*``
    unless ``|sigma| |A|^2`` exceeds about 450 ``||V||_*``, so such a step
    converges; where the floor is above the tolerance, the next step forms
    the same ``W`` again, measures ``d_w = 0`` and stops.

    The seed solves the band on ``V``, which is ``W~_0`` exactly (``V`` has
    zero mean).  On the diag backend it factors the window and measures the
    band's ``isolation``; by Weyl's inequality step ``m`` passes
    ``seed.isolation - drift``, and while that stays at ``rho`` or above the
    oracle continues the band from the previous pair on the seed's factor.
    One window is factored and one second eigenvalue measured per fixed
    point, as admission is checked once.
    """
    a = anchor(ctx, t, j)
    check_smallness(ctx, a.k)
    if len(ctx.V):
        require_nonresonant(ctx, a.t, a.j)
    if backend not in ("series", "diag"):
        raise ConfigError(f"unknown backend {backend!r}; expected 'series' or 'diag'")

    # effective_perturbation of the plane-wave column 1, bit for bit
    W_prev = ctx.V + PeriodicFunction.constant(ctx.n, ctx.sigma * abs(ctx.A) ** 2)
    if backend == "series":
        solve = lambda W_tilde, drift, previous: _series_eigenpair(ctx, W_tilde, a)
        seed = _series_eigenpair(ctx, ctx.V, a)
    else:
        seed = diagonalize_oracle(ctx, ctx.V, a.t, a.j)
        solve = lambda W_tilde, drift, previous: diagonalize_oracle(
            ctx, W_tilde, a.t, a.j, isolation=seed.isolation - drift, previous=previous,
        )
    pair = seed
    column = pair.proj_column
    noise_floor = NOISE_FLOOR_FACTOR * np.finfo(float).eps * star_norm(W_prev)
    rows = []
    solution: Optional[Solution] = None

    for m in range(1, M_MAX + 1):
        W, tail = effective_perturbation(ctx, column)
        W_tilde, w_mean = zero_mean_shift(W)
        d_w = star_norm(W - W_prev)
        drift = star_norm(W_tilde - ctx.V)
        if d_w > noise_floor:
            pair = solve(W_tilde, drift, pair)
        if not 0.0 < pair.e_jj < 2.0:
            raise NumericalFailure(
                f"projector diagonal {pair.e_jj:.6g} escaped (0, 2) at step {m}; "
                "the band solve is not trustworthy here"
            )

        lam_gap_total = pair.lam_gap + w_mean
        d_col = star_norm(pair.proj_column - column)
        rows.append(
            TraceRow(
                m=m,
                d_w=d_w,
                drift=drift,
                lam_gap=float(lam_gap_total),
                d_col=d_col,
                d_psi=abs(ctx.A) * d_col,
                tail=tail,
                w=W,
            )
        )

        if d_w <= ctx.tol_fp_value:
            solution = Solution(
                **vars(a),
                lam_gap=float(lam_gap_total),
                psi=pair.psi(ctx.A),
                eigenpair=replace(pair, inverse=None),    # a result keeps no window factor
                w_mean=w_mean,
                sigma_abs2=ctx.sigma * abs(ctx.A) ** 2,
                steps=m,
                certified=(
                    a.k >= k1_threshold(ctx)
                    and contraction_ratio(ctx, a.k) < 1.0
                    and (backend != "series" or pair.tail_certified)
                ),
            )
            break
        W_prev, column = W, pair.proj_column

    return solution, FixedPointTrace(rows=tuple(rows), noise_floor=noise_floor)


@dataclass(frozen=True)
class ContractionReport:
    """Measured contraction quality, compared step by step with the a-priori
    bounds that hold in the certified high-energy regime.

    Three comparisons are tracked: the step-to-step ratio of perturbation
    increments against the uniform contraction factor, the drift of the
    zero-mean perturbation away from the bare potential against its static
    bound, and the column increments against their geometrically decaying
    bounds.  Each carries a status of ``"held"``, ``"violated"`` or
    ``"not-applicable"``; the last is used below the certification threshold
    ``k1`` (where the bounds are simply not claimed) and wherever the bound
    or the measurement sits under the floating-point noise floor.
    """

    k1: float
    bound_applicable: bool
    increments: Tuple[float, ...]
    ratios: Tuple[Optional[float], ...]   # ratio at m -> dW_{m+1}/dW_m
    ratio_bound: float
    ratio_status: Tuple[str, ...]
    drifts: Tuple[float, ...]             # ||W~_m - V||_* per step
    drift_bound: float
    drift_status: Tuple[str, ...]
    col_increments: Tuple[float, ...]
    col_bounds: Tuple[float, ...]
    col_status: Tuple[str, ...]
    noise_floor: float

    @property
    def violated(self) -> bool:
        combined = self.ratio_status + self.drift_status + self.col_status
        return any(s == "violated" for s in combined)


def _compare(measured: float, bound: float, claimed: bool, floor: float) -> str:
    if not claimed or bound <= floor:
        return "not-applicable"
    return "held" if measured <= bound else "violated"


def contraction_report(ctx: ModelContext, trace: FixedPointTrace, k: float) -> ContractionReport:
    """Audit a fixed-point trace against the contraction estimates; the
    drifts are the trace rows' own, measured once by ``iterate``.

    Ratios between consecutive increments are only formed when both sit
    above the noise floor of the perturbation norm; at an exact fixed point
    (or once rounding dominates) the ratio is dropped rather than reported
    as rounding garbage.  All bound comparisons are flagged not-applicable
    below the certification threshold ``k1``, where no estimate is claimed.
    """
    exps = exponents(ctx)
    k1 = k1_threshold(ctx)
    claimed = exps.valid and k >= k1
    coupling = abs(ctx.sigma) * abs(ctx.A) ** 2

    incs = [row.d_w for row in trace.rows]
    ratio_bound = contraction_ratio(ctx, k)
    ratios: list = []
    ratio_status: list = []
    for a, b in zip(incs, incs[1:]):
        if a > trace.noise_floor and b > trace.noise_floor:
            r = b / a
            ratios.append(r)
            ratio_status.append(_compare(r, ratio_bound, claimed, 0.0))
        else:
            ratios.append(None)
            ratio_status.append("not-applicable")

    drift_bound = 8.0 * coupling * ctx.v_star * k ** -exps.gamma2 if exps.valid else math.inf
    drifts = [row.drift for row in trace.rows]
    drift_status = [_compare(d, drift_bound, claimed, trace.noise_floor) for d in drifts]

    # The column increments contract geometrically from a first kick of
    # size  8 ||V||_* k^-gamma2 * (coupling * k^-gamma0); their own noise
    # floor is set by the O(1) normalisation of the column.
    col_floor = NOISE_FLOOR_FACTOR * np.finfo(float).eps
    col_incs = [row.d_col for row in trace.rows]
    col_bounds = []
    col_status = []
    for row, d in zip(trace.rows, col_incs):
        if exps.valid:
            bound = (
                8.0 * ctx.v_star * k ** -exps.gamma2
                * (coupling * k ** -exps.gamma0) ** row.m
            )
        else:
            bound = math.inf
        col_bounds.append(bound)
        col_status.append(_compare(d, bound, claimed, col_floor))

    return ContractionReport(
        k1=k1,
        bound_applicable=claimed,
        increments=tuple(incs),
        ratios=tuple(ratios),
        ratio_bound=ratio_bound,
        ratio_status=tuple(ratio_status),
        drifts=tuple(drifts),
        drift_bound=drift_bound,
        drift_status=tuple(drift_status),
        col_increments=tuple(col_incs),
        col_bounds=tuple(col_bounds),
        col_status=tuple(col_status),
        noise_floor=trace.noise_floor,
    )


def defect(
    ctx: ModelContext,
    t,
    j,
    psi: PeriodicFunction,
    lam_gap: float,
    radius: Optional[int] = None,
) -> np.ndarray:
    """Coefficients ``(mu_{j+q} - mu_j - lam_gap) psi_q + (V psi)_q + sigma
    (|psi|^2 psi)_q`` of ``(H0 + V + sigma |psi|^2 - lam) psi``, on the box of
    sup-norm ``radius`` (default: the smallest that holds them all).  Energy
    gaps are evaluated stably, so the huge diagonal cannot wash out the defect.
    """
    coupled = multiply(ctx.V, psi) + multiply(abs_squared(psi), psi).scale(ctx.sigma)
    if radius is None:
        radius = max(psi.box_radius, coupled.box_radius)
    gaps = energy_gaps(ctx, t, j, integer_grid(radius, ctx.n))
    return (gaps - lam_gap) * psi.to_box(radius) + coupled.to_box(radius)


def residual(ctx: ModelContext, wave: Wave, box: Optional[np.ndarray] = None) -> float:
    """Exact residual of the nonlinear equation at ``wave``: the summed
    magnitudes of its ``defect`` (``box`` where the caller holds it), scaled
    by the wave amplitude."""
    if not len(wave.psi):
        raise ContractError("solution wave is empty")
    if box is None:
        box = defect(ctx, wave.t, wave.j, wave.psi, wave.lam_gap)
    return math.fsum(moduli(box).ravel().tolist()) / (abs(ctx.A) or 1.0)
