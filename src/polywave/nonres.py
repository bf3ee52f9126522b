"""Admission tests for quasi-momenta.

A pair ``(t, j)`` with momentum ``p = t + j`` and ``k = |p|`` is admitted
when the shifted lattice energies ``mu_i = |t + i|^{2l}`` keep a safe
distance from the spectral window centered at ``c = k^{2l}``:

* separation: every other site stays outside the contour radius ``rho``;
* separation with slack: every other site stays outside ``2*rho`` while
  the chosen site sits in the inner half of the window;
* pair condition: products of distances to the contour, taken along all
  short lattice offsets, stay above an explicit power of ``k``.

Only a thin shell ``|mu_i - c| <= G`` around ``|t + i| = k`` can set the
minima: the check enumerates it column by column, never the whole box, and
grows ``G`` until the minima certifiably lie on it, so the result equals
exact enumeration over the box without sampling or cut-off heuristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, ResonanceError
from .lattice import BOX_SITES_MAX, LatticeIndex, ModelContext, decompose, integer_grid, momentum

# Safety factor in the pair condition: 200 * d_i * d_{i+q} > k^{2*gamma2}.
PAIR_FACTOR = 200.0
# Working floor of the momentum magnitude k: admission checks and sweeps
# refuse momenta below it, and the certified tail bounds start at it.
K0 = 2.0


@dataclass(frozen=True)
class Exponents:
    """Decay exponents implied by (n, l, beta, delta)."""

    gamma0: float   # contour radius: rho = k^(2l - n - delta), gamma0 = 2l - n - 2*delta
    gamma1: float   # second-order smallness: 4l - 2 - beta*(n-1) - delta
    gamma2: float   # perturbation-step gain: 2*gamma2 = 4l - n - 1 - beta*(n-1) - 2*delta

    @property
    def valid(self) -> bool:
        """True when the series machinery has positive gain."""
        return self.gamma2 > 0.0 and self.gamma1 > 0.0


def exponents(ctx: ModelContext) -> Exponents:
    n, l, beta, delta = ctx.n, ctx.l, ctx.beta, ctx.delta
    gamma0 = 2 * l - n - 2 * delta
    gamma1 = 4 * l - 2 - beta * (n - 1) - delta
    gamma2 = 0.5 * (4 * l - n - 1 - beta * (n - 1) - 2 * delta)
    return Exponents(gamma0=gamma0, gamma1=gamma1, gamma2=gamma2)


def k1_threshold(ctx: ModelContext) -> float:
    """Smallest k at which the certified tail bounds apply."""
    exps = exponents(ctx)
    if not exps.valid:
        return math.inf
    v = ctx.v_star
    if v == 0.0:
        return K0
    return max((16.0 * v) ** (1.0 / exps.gamma2), K0)


def contour_radius(ctx: ModelContext, k: float) -> float:
    return k ** (2 * ctx.l - ctx.n - ctx.delta)


def contour_center(ctx: ModelContext, k: float) -> float:
    return k ** (2 * ctx.l)


@dataclass(frozen=True)
class Anchor:
    """Quasi-momentum ``p = t + j`` with ``k = |p|``, the unperturbed energy
    ``center = k^{2l}`` and the contour radius ``rho = k^{2l-n-delta}``."""

    t: Tuple[float, ...]
    j: LatticeIndex
    k: float
    center: float
    rho: float


def anchor(ctx: ModelContext, t, j) -> Anchor:
    """Normalise ``(t, j)`` and derive ``k``, ``center`` and ``rho`` once.

    Raises ``ConfigError`` when ``|t + j|`` or ``k^{2l}`` overflows, or when
    ``k = 0`` leaves a negative-power contour radius undefined, so no stage
    downstream forms a power of ``k`` that is out of range.
    """
    t = tuple(float(c) for c in np.asarray(t, dtype=float))
    j = tuple(int(c) for c in j)
    k = math.inf
    try:
        p = momentum(j, t)
        with np.errstate(over="ignore"):
            k = float(np.sqrt(p @ p))
        center, rho = contour_center(ctx, k), contour_radius(ctx, k)
    except (OverflowError, ZeroDivisionError):
        center = math.inf
    if not math.isfinite(center):
        raise ConfigError(
            f"momentum magnitude |t + j| = {k:.6g} gives no finite k^{2 * ctx.l} "
            "and contour radius"
        )
    return Anchor(t=t, j=j, k=k, center=center, rho=rho)


@dataclass(frozen=True)
class NonResonanceReport(Anchor):
    """Outcome of the admission tests for one quasi-momentum."""

    box_radius: int
    cond_separation: bool
    cond_slack: bool
    cond_pair: bool
    margin_separation: float     # min_{i != j} |mu_i - c| - rho
    margin_slack: float          # min_{i != j} |mu_i - c| - 2*rho
    margin_pair: float           # min 200*d_i*d_{i+q} - k^{2*gamma2}
    worst_separation: LatticeIndex

    @property
    def admitted(self) -> bool:
        return self.cond_separation and self.cond_slack and self.cond_pair


def energy_gaps(ctx: ModelContext, t, j, offsets: np.ndarray) -> np.ndarray:
    """mu_{j+d} - mu_j for an array of integer offsets d, evaluated stably.

    Written in the factored form ``g2 * sum_m a^m (k^2)^(l-1-m)`` with
    ``g2 = |d|^2 + 2<p_j, d>`` and ``a = k^2 + g2``; the only subtraction
    happens inside ``g2`` where both terms are exactly representable, so the
    result keeps full relative accuracy even when ``mu`` itself is ~1e8.
    """
    pj = momentum(j, t)
    k2 = float(pj @ pj)
    d = np.asarray(offsets, dtype=float)
    g2 = np.einsum("...i,...i->...", d, d) + 2.0 * (d @ pj)
    a = k2 + g2
    acc = np.zeros_like(g2)
    for m in range(ctx.l):
        acc += a ** m * k2 ** (ctx.l - 1 - m)
    return g2 * acc


def _shell(ctx: ModelContext, a: Anchor, radius: int, G: float):
    """Sites ``|i|_inf <= radius`` with ``|mu_i - mu_j| <= G`` in lexicographic
    order, and their gaps.  A column ``(i_1, ..., i_{n-1})`` meets the shell
    in two runs of ``i_n``, solved from the bounding radii widened so that
    rounding drops no site; ``energy_gaps`` is the exact filter."""
    n, tn = ctx.n, a.t[-1]
    cols = integer_grid(radius, n - 1).reshape(-1, n - 1) if n > 1 else np.zeros((1, 0), int)
    hi2 = ((a.center + G) * (1.0 + 1e-9)) ** (1.0 / ctx.l)
    lo2 = (max(a.center - G, 0.0) * (1.0 - 1e-9)) ** (1.0 / ctx.l)
    r2 = np.sum((np.asarray(a.t[:-1]) + cols) ** 2, axis=1)
    cols, r2 = cols[r2 <= hi2], r2[r2 <= hi2]
    s_hi, s_lo = np.sqrt(hi2 - r2), np.sqrt(np.maximum(lo2 - r2, 0.0))
    first = np.clip(np.floor(-tn - s_hi) - 1.0, -radius, radius + 1)
    last = np.clip(np.ceil(-tn + s_hi) + 1.0, -radius - 1, radius)
    # i_n in [hole_lo, hole_hi] lies strictly inside the inner sphere
    hole_lo = np.ceil(-tn - s_lo) + 1.0
    hole_hi = np.maximum(np.floor(-tn + s_lo) - 1.0, hole_lo - 1.0)
    starts = np.stack([first, np.maximum(first, hole_hi + 1.0)], 1).ravel().astype(np.int64)
    ends = np.stack([np.minimum(last, hole_lo - 1.0), last], 1).ravel().astype(np.int64)
    lengths = np.maximum(ends - starts + 1, 0)
    total = int(lengths.sum())
    if total > BOX_SITES_MAX:
        raise ConfigError(f"admission shell of {total} sites exceeds {BOX_SITES_MAX}")
    last_index = np.arange(total) + np.repeat(starts + lengths - np.cumsum(lengths), lengths)
    sites = np.column_stack([np.repeat(cols, lengths.reshape(-1, 2).sum(1), axis=0), last_index])
    gaps = energy_gaps(ctx, a.t, a.j, sites - np.asarray(a.j))
    return sites[np.abs(gaps) <= G], gaps[np.abs(gaps) <= G]


def _pair_condition(ctx, a, sites, q_list, box_radius, threshold):
    """Least ``200 d_i d_{i+q} - k^{2 gamma2}`` over ``q`` and over ``i`` in
    the box with ``i`` or ``i + q`` in ``sites`` (``inf`` when ``q_list`` is
    empty)."""
    if 2 * len(sites) * len(q_list) > BOX_SITES_MAX:
        raise ConfigError(f"admission pair pass exceeds {BOX_SITES_MAX} pairs")

    def dist(points):
        gaps = energy_gaps(ctx, a.t, a.j, points.reshape(-1, ctx.n) - np.asarray(a.j))
        return np.abs(np.abs(gaps) - a.rho).reshape(points.shape[:-1])

    d_site, behind = dist(sites)[:, None], sites[:, None] - q_list
    prod = np.concatenate([
        np.where(np.all(np.abs(sites) <= box_radius, axis=1)[:, None],
                 PAIR_FACTOR * d_site * dist(sites[:, None] + q_list), np.inf),
        np.where(np.all(np.abs(behind) <= box_radius, axis=2),
                 PAIR_FACTOR * dist(behind) * d_site, np.inf),
    ])
    return float(prod.min(initial=math.inf) - threshold)


def check_quasimomentum(ctx: ModelContext, t, j) -> NonResonanceReport:
    """Run all admission tests for the quasi-momentum ``p = t + j``."""
    a = anchor(ctx, t, j)
    t, j, k, rho = a.t, a.j, a.k, a.rho
    if any(not 0.0 <= c < 1.0 for c in t):
        raise ConfigError(f"t must lie in [0,1)^n, got {t}")
    if k < K0:
        raise ConfigError(f"momentum magnitude {k:.6g} is below the working floor K0 = {K0}")

    # Sites with |t+i| > 2k have |mu_i - c| >= (4^l - 1) k^{2l} >> 2*rho and pair
    # products far above k^{2*gamma2}: the box of sup-norm radius ceil(2k) + 2
    # holds every candidate violator, and padding it by ceil(k^beta) every partner.
    box_radius = int(math.ceil(2.0 * k)) + 2
    pad = int(math.ceil(k ** ctx.beta))
    q_grid = integer_grid(max(pad, 1), ctx.n).reshape(-1, ctx.n)
    q_norms2 = np.sum(q_grid * q_grid, axis=1)
    q_list = q_grid[(q_norms2 > 0) & (q_norms2 < k ** (2.0 * ctx.beta))]
    try:
        threshold = k ** (2.0 * exponents(ctx).gamma2)
    except OverflowError:
        raise ConfigError(f"k = {k:.6g} gives no finite pair threshold k^(2*gamma2)") from None

    # Grow the shell until it certifies itself: a site off it has d_i > G - rho,
    # so once some i != j lies strictly inside it and the least pair is strictly
    # below any product of two off-shell distances, no site or pair outside can
    # attain or tie either minimum.  At G = inf the shell is the padded box.
    G = 4.0 * rho + math.sqrt(threshold / PAIR_FACTOR)
    while True:
        sites, gaps = _shell(ctx, a, box_radius + pad, G)
        inner = np.all(np.abs(sites) <= box_radius, axis=1) & np.any(sites != j, axis=1)
        abs_gaps = np.abs(gaps[inner])
        if G == math.inf or abs_gaps.size and abs_gaps.min() < G:
            margin_pair = _pair_condition(ctx, a, sites, q_list, box_radius, threshold)
            off_shell = PAIR_FACTOR * (G - rho) * (G - rho) - threshold
            if G == math.inf or not len(q_list) or margin_pair < off_shell:
                break
        G *= 4.0

    flat = int(np.argmin(abs_gaps))
    margin_sep = float(abs_gaps[flat]) - rho
    margin_slack = float(abs_gaps[flat]) - 2.0 * rho
    return NonResonanceReport(
        **vars(a),
        box_radius=box_radius,
        cond_separation=margin_sep > 0.0,
        cond_slack=margin_slack >= 0.0,
        cond_pair=margin_pair > 0.0,
        margin_separation=margin_sep,
        margin_slack=margin_slack,
        margin_pair=margin_pair,
        worst_separation=tuple(int(c) for c in sites[inner][flat]),
    )


def require_nonresonant(ctx: ModelContext, t, j) -> NonResonanceReport:
    """As check_quasimomentum, but raise ResonanceError unless all tests pass."""
    report = check_quasimomentum(ctx, t, j)
    if not report.admitted:
        failed = [
            name
            for name, ok in [
                ("separation", report.cond_separation),
                ("slack", report.cond_slack),
                ("pair", report.cond_pair),
            ]
            if not ok
        ]
        raise ResonanceError(
            f"quasi-momentum t={report.t}, j={report.j} fails admission "
            f"({', '.join(failed)}); margins: sep={report.margin_separation:.3g}, "
            f"slack={report.margin_slack:.3g}, pair={report.margin_pair:.3g}",
            report=report,
        )
    return report


@dataclass(frozen=True)
class SphereSampleStats:
    """Summary of an admission sweep over random directions at fixed k.

    ``directions`` and ``reports`` are in draw order, one per sample,
    admitted or not.
    """

    samples: int
    directions: Tuple[Tuple[float, ...], ...]
    reports: Tuple[NonResonanceReport, ...]

    @property
    def admitted(self) -> int:
        return sum(r.admitted for r in self.reports)

    @property
    def failed_separation(self) -> int:
        """Draws that fail the separation test first."""
        return sum(not r.cond_separation for r in self.reports)

    @property
    def failed_slack(self) -> int:
        """Draws that pass separation and fail the slack test."""
        return sum(r.cond_separation and not r.cond_slack for r in self.reports)

    @property
    def failed_pair(self) -> int:
        """Draws that pass separation and slack and fail the pair test."""
        return sum(r.cond_separation and r.cond_slack and not r.cond_pair for r in self.reports)

    @property
    def fraction(self) -> float:
        return self.admitted / self.samples if self.samples else 0.0


def sample_directions(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic unit vectors, one independent stream per draw index."""
    out = np.empty((count, n))
    for idx in range(count):
        rng = np.random.default_rng((seed, idx))
        v = rng.standard_normal(n)
        norm = np.linalg.norm(v)
        while norm < 1e-12:   # pragma: no cover - probability ~0
            v = rng.standard_normal(n)
            norm = np.linalg.norm(v)
        out[idx] = v / norm
    return out


def sample_nonresonant(
    ctx: ModelContext,
    k: float,
    samples: int,
) -> SphereSampleStats:
    """Sample momenta of magnitude k in random directions and test admission."""
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if not K0 <= k < math.inf:
        raise ConfigError(f"k = {k} must be finite and at least the working floor K0 = {K0}")

    def probe(omega) -> NonResonanceReport:
        j, t = decompose(k * omega)
        return check_quasimomentum(ctx, t, j)

    directions = sample_directions(ctx.n, samples, ctx.seed)
    return SphereSampleStats(
        samples=samples,
        directions=tuple(map(tuple, directions.tolist())),
        reports=tuple(map(probe, directions)),
    )
