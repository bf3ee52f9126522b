"""Isoenergetic surfaces: momenta that share one nonlinear eigenvalue.

For a fixed target eigenvalue ``lam`` and a unit direction ``nu``, the
surface radius ``kappa(nu)`` solves ``lam(kappa * nu) = lam``.  At high
energy the radius differs from the free-wave reference
``ktilde = (lam - sigma |A|^2)^(1/2l)`` by a correction ``h`` that is many
orders below the floating-point resolution of ``kappa`` itself, so the
search runs entirely in the ``h`` coordinate:

* the polynomial part ``kappa^{2l} - ktilde^{2l}`` is factored as
  ``h * sum_s kappa^s ktilde^{2l-1-s}``, which is smooth in ``h`` down to
  arbitrarily small values;
* the rounding committed when ``ktilde`` was squeezed into a float is
  captured once, in exact rational arithmetic, as the constant ``c0``;
* the spectral correction is evaluated at the rounded momentum, where its
  own variation over one float spacing is negligible.

Surface points admit no closed form, so each evaluation runs the spectral
machinery; directions that fail the admission tests puncture the surface
and are reported, not silently skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import numpy as np

from .bloch import series_eigenpair
from .errors import (
    ConfigError,
    NonConvergence,
    NumericalFailure,
    ResonanceError,
)
from .lattice import ModelContext, decompose
from .nonres import K0, sample_directions

# Newton stops once its step is below this fraction of |h|.
H_REL_WIDTH = 1e-4
# Evaluation cap of the Newton loop; the free-wave slope makes it contract
# in about two evaluations, so hitting the cap means the residual is not
# behaving like a perturbed polynomial.
MAX_ROOT_EVALS = 8


def reference_radius(ctx: ModelContext, lam: float) -> Tuple[float, float]:
    """Free-wave radius for the target eigenvalue, plus its rounding defect.

    Returns ``(ktilde, c0)``: ``ktilde`` is the float nearest to
    ``base^(1/2l)`` with ``base = lam - sigma|A|^2``, and ``c0 =
    ktilde^{2l} - base`` rounded once from its exact rational value.  ``c0``
    is the amount by which the rounded float ``ktilde`` misses the target,
    and the root search must account for it because the corrections being
    resolved are smaller.
    """
    if not math.isfinite(lam):
        raise ConfigError(f"target eigenvalue {lam} is not finite")
    base = lam - ctx.sigma * abs(ctx.A) ** 2
    if base <= 0.0:
        raise ConfigError(f"target eigenvalue {lam} sits below the cubic shift")
    two_l = 2 * ctx.l
    exact = Fraction(base)
    # Step to the float kt with kt^{2l} <= base < next(kt)^{2l}, then round
    # by the exact midpoint; a midpoint has too many bits to tie.
    kt = base ** (1.0 / two_l)
    while Fraction(kt) ** two_l > exact:
        kt = math.nextafter(kt, 0.0)
    up = math.nextafter(kt, math.inf)
    while Fraction(up) ** two_l <= exact:
        kt, up = up, math.nextafter(up, math.inf)
    if ((Fraction(kt) + Fraction(up)) / 2) ** two_l < exact:
        kt = up
    c0 = float(Fraction(kt) ** two_l - exact)
    if kt < K0:
        raise ConfigError(f"reference radius {kt:.6g} is below the working floor")
    return kt, c0


@dataclass(frozen=True)
class IsoSurfaceSample:
    """One resolved point of an isoenergetic surface: the radius ``kappa``,
    ``h`` off the reference radius, along the direction it was asked for."""

    h: float
    kappa: float
    f_at_root: float            # residual of the defining equation at the root
    evals: int


def _unit(ctx: ModelContext, vector) -> np.ndarray:
    """``vector`` scaled to unit length; refuses a zero, non-finite or
    wrong-dimension vector."""
    v = np.asarray(vector, dtype=float)
    norm = float(np.linalg.norm(v))
    if v.shape != (ctx.n,) or not 0.0 < norm < math.inf:
        raise ConfigError(f"need a nonzero finite vector of dimension {ctx.n}, got {v.tolist()}")
    return v / norm


def kappa_solve(ctx: ModelContext, lam: float, direction) -> IsoSurfaceSample:
    """Radius of the isoenergetic surface along one direction.

    Solves ``F(h) = h * P(h) + c0 + gap(kappa) - sigma |A|^2 = 0`` for the
    offset ``h = kappa - ktilde``, where ``P(h) = sum_s kappa^s
    ktilde^{2l-1-s}`` is the factored free-wave slope and ``gap`` the
    spectral correction ``lam(kappa * nu) - kappa^{2l}``.  ``P`` dominates
    ``dF/dh`` at high energy, so the iteration is Newton with that slope:
    ``h <- h - F(h) / P(h)`` from ``h = 0``.  It stops at the first
    evaluated ``h`` whose residual is below ``ctx.tol_root`` (default
    ``1e-9 * |lam|``) and whose step is below ``H_REL_WIDTH * |h|``; that
    residual is the certificate stored in ``f_at_root``.  The search raises
    ``NonConvergence`` after ``MAX_ROOT_EVALS`` evaluations.

    ``gap`` is the linear band gap of ``H0 + V`` (``series_eigenpair``) plus
    ``sigma |A|^2 sum_q |column_q|^2``, the mean of the cubic term over the
    band's projector column: the self-consistent eigenvalue of
    ``fixedpoint.iterate`` to first order in ``sigma |A|^2``.  At l = 3 the
    two agree far inside the default ``tol_root`` (1e-13 apart on the
    desk points at ``sigma |A|^2 = 1e-3``); at l = 1 they are 5e-6 to 9e-6
    apart, above it, so an l = 1 nonlinear root certifies this formula, not
    the self-consistent eigenvalue.

    A momentum that fails the admission tests raises ``ResonanceError``
    unchanged: the direction is a hole of the surface, not a failed solve.
    """
    nu = _unit(ctx, direction)
    kt, c0 = reference_radius(ctx, lam)
    sig2 = ctx.sigma * abs(ctx.A) ** 2
    tol_root = ctx.tol_root if ctx.tol_root is not None else 1e-9 * abs(lam)
    two_l = 2 * ctx.l

    h = 0.0
    for evals in range(1, MAX_ROOT_EVALS + 1):
        kappa = kt + h
        p = math.fsum(kappa ** s * kt ** (two_l - 1 - s) for s in range(two_l))
        j, t = decompose(kappa * nu)
        pair = series_eigenpair(ctx, ctx.V, t, j)
        col_sq = math.fsum(abs(c) ** 2 for c in pair.proj_column.box.ravel().tolist())
        f = h * p + c0 + (pair.lam_gap + sig2 * col_sq - sig2)
        step = f / p
        if abs(f) <= tol_root and abs(step) <= H_REL_WIDTH * abs(h):
            break
        h -= step
    else:
        raise NonConvergence(
            f"surface Newton search did not settle within {MAX_ROOT_EVALS} "
            f"evaluations (last |F| = {abs(f):.3e}, tol_root {tol_root:.3e})"
        )

    return IsoSurfaceSample(h=float(h), kappa=float(kappa), f_at_root=float(f), evals=evals)


@dataclass(frozen=True)
class SurfaceDraw:
    """Outcome of one direction of a surface scan.

    ``status`` is ``"ok"`` with the resolved ``sample``, ``"hole"`` when the
    admission tests puncture the direction, or ``"failure"`` when the root
    search failed for another reason; ``error`` names the exception class.
    """

    direction: Tuple[float, ...]
    status: str
    sample: Optional[IsoSurfaceSample] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class SurfaceScan:
    """Batch of surface solves over many directions, one draw each in order."""

    draws: Tuple[SurfaceDraw, ...]

    @property
    def requested(self) -> int:
        return len(self.draws)

    @property
    def resolved(self) -> Tuple[IsoSurfaceSample, ...]:
        return tuple(d.sample for d in self.draws if d.sample is not None)

    @property
    def holes(self) -> int:
        """Directions rejected by the admission tests."""
        return sum(d.status == "hole" for d in self.draws)

    @property
    def failures(self) -> int:
        """Root searches that failed for other reasons."""
        return sum(d.status == "failure" for d in self.draws)

    @property
    def kappa_values(self) -> np.ndarray:
        return np.array([s.kappa for s in self.resolved])


def sample_surface(ctx: ModelContext, lam: float, count: int) -> SurfaceScan:
    """Resolve surface points over random directions.

    Directions come from the deterministic per-index sampler.  Admission
    failures count as holes; they are part of the geometry, not errors.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    dirs = sample_directions(ctx.n, count, ctx.seed)

    def solve(nu) -> SurfaceDraw:
        direction = tuple(float(c) for c in nu)
        try:
            sample = kappa_solve(ctx, lam, nu)
        except (NonConvergence, NumericalFailure) as exc:
            status = "hole" if isinstance(exc, ResonanceError) else "failure"
            return SurfaceDraw(direction, status, error=type(exc).__name__)
        return SurfaceDraw(direction, "ok", sample=sample)

    return SurfaceScan(draws=tuple(map(solve, dirs)))
