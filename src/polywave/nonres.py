"""Admission tests for quasi-momenta.

A pair ``(t, j)`` with momentum ``p = t + j`` and ``k = |p|`` is admitted
when the shifted lattice energies ``mu_i = |t + i|^{2l}`` keep a safe
distance from the spectral window centered at ``c = k^{2l}``:

* separation: every other site stays outside the contour radius ``rho``;
* separation with slack: every other site stays outside ``2*rho`` while
  the chosen site sits in the inner half of the window;
* pair condition: products of distances to the contour, taken along all
  short lattice offsets, stay above an explicit power of ``k``.

All three are checked by exact enumeration over a box that provably
contains every site able to violate them; outside the box the conditions
hold by a coarse a-priori bound, so no sampling or cut-off heuristics are
involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigError, ResonanceError
from .lattice import LatticeIndex, ModelContext, decompose, integer_grid, momentum

# Safety factor in the pair condition: 200 * d_i * d_{i+q} > k^{2*gamma2}.
PAIR_FACTOR = 200.0


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
        return ctx.k0
    return max((16.0 * v) ** (1.0 / exps.gamma2), ctx.k0)


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
class NonResonanceReport:
    """Outcome of the admission tests for one quasi-momentum."""

    k: float
    t: Tuple[float, ...]
    j: LatticeIndex
    center: float
    rho: float
    box_radius: int
    cond_separation: bool
    cond_slack: bool
    cond_pair: bool
    margin_separation: float     # min_{i != j} |mu_i - c| - rho
    margin_slack: float          # min_{i != j} |mu_i - c| - 2*rho
    margin_pair: float           # min 200*d_i*d_{i+q} - k^{2*gamma2}
    worst_separation: LatticeIndex
    worst_pair: Tuple[LatticeIndex, LatticeIndex]

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


def check_quasimomentum(ctx: ModelContext, t, j) -> NonResonanceReport:
    """Run all admission tests for the quasi-momentum ``p = t + j``."""
    a = anchor(ctx, t, j)
    t, j, k, rho = a.t, a.j, a.k, a.rho
    if any(not 0.0 <= c < 1.0 for c in t):
        raise ConfigError(f"t must lie in [0,1)^n, got {t}")
    if k < ctx.k0:
        raise ConfigError(f"momentum magnitude {k:.6g} is below the working floor k0 = {ctx.k0}")

    # Any site with |t+i| > 2k has |mu_i - c| >= (4^l - 1) k^{2l} >> 2*rho,
    # and any product of two such distances dwarfs k^{2*gamma2}; so a box of
    # sup-norm radius ceil(2k) + 2 around the origin contains every candidate
    # violator, with symmetric pair lookups handled by padding.
    box_radius = int(math.ceil(2.0 * k)) + 2
    pad = int(math.ceil(k ** ctx.beta))
    grid = integer_grid(box_radius + pad, ctx.n)

    exps = exponents(ctx)
    gaps = energy_gaps(ctx, t, j, grid - np.asarray(j))
    dist = np.abs(np.abs(gaps) - rho)

    side = 2 * box_radius + 1
    inner = tuple(slice(pad, pad + side) for _ in range(ctx.n))
    gaps_box = gaps[inner]
    grid_box = grid[inner]

    # Separation conditions exclude the chosen site itself.
    self_mask = np.all(grid_box == np.asarray(j), axis=-1)
    abs_gaps = np.where(self_mask, np.inf, np.abs(gaps_box))
    flat = int(np.argmin(abs_gaps))
    min_gap = float(abs_gaps.flat[flat])
    worst_sep = tuple(int(c) for c in grid_box.reshape(-1, ctx.n)[flat])

    margin_sep = min_gap - rho
    margin_slack = min_gap - 2.0 * rho

    # Pair condition over short offsets 0 < |q| < k^beta.
    threshold = k ** (2.0 * exps.gamma2)
    q_grid = integer_grid(max(pad, 1), ctx.n).reshape(-1, ctx.n)
    q_norms2 = np.sum(q_grid * q_grid, axis=1)
    q_list = q_grid[(q_norms2 > 0) & (q_norms2 < k ** (2.0 * ctx.beta))]

    dist_box = dist[inner]
    margin_pair = math.inf
    worst_pair = (j, j)
    for q in q_list:
        shifted = tuple(slice(pad + int(c), pad + int(c) + side) for c in q)
        prod = PAIR_FACTOR * dist_box * dist[shifted]
        flat = int(np.argmin(prod))
        worst = float(prod.flat[flat]) - threshold
        if worst < margin_pair:
            margin_pair = worst
            i_worst = tuple(int(c) for c in grid_box.reshape(-1, ctx.n)[flat])
            worst_pair = (i_worst, tuple(int(a + b) for a, b in zip(i_worst, q)))
    if not len(q_list):
        margin_pair = math.inf

    return NonResonanceReport(
        k=k,
        t=t,
        j=j,
        center=a.center,
        rho=rho,
        box_radius=box_radius,
        cond_separation=margin_sep > 0.0,
        cond_slack=margin_slack >= 0.0,
        cond_pair=margin_pair > 0.0,
        margin_separation=margin_sep,
        margin_slack=margin_slack,
        margin_pair=margin_pair,
        worst_separation=worst_sep,
        worst_pair=worst_pair,
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

    k: float
    samples: int
    admitted: int
    failed_separation: int
    failed_slack: int
    failed_pair: int
    directions: Tuple[Tuple[float, ...], ...]
    reports: Tuple[NonResonanceReport, ...]

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
    seed: Optional[int] = None,
) -> SphereSampleStats:
    """Sample momenta of magnitude k in random directions and test admission."""
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if k < ctx.k0:
        raise ConfigError(f"k = {k} is below the working floor k0 = {ctx.k0}")
    seed = ctx.seed if seed is None else seed

    def probe(omega) -> NonResonanceReport:
        j, t = decompose(k * omega)
        return check_quasimomentum(ctx, t, j)

    directions = sample_directions(ctx.n, samples, seed)
    reports = tuple(map(probe, directions))
    admitted = 0
    fails = {"separation": 0, "slack": 0, "pair": 0}
    for report in reports:
        if report.admitted:
            admitted += 1
        elif not report.cond_separation:
            fails["separation"] += 1
        elif not report.cond_slack:
            fails["slack"] += 1
        else:
            fails["pair"] += 1
    return SphereSampleStats(
        k=float(k),
        samples=samples,
        admitted=admitted,
        failed_separation=fails["separation"],
        failed_slack=fails["slack"],
        failed_pair=fails["pair"],
        directions=tuple(map(tuple, directions.tolist())),
        reports=reports,
    )
