"""Closed forms of the band solve's leading orders, for the tests.

``second_order_eigenvalue_shift`` and ``first_order_column`` are the first
terms of the Rayleigh-Schroedinger series that ``polywave.bloch`` sums; the
tests hold both backends against them.  ``eigenvalue_gradient``
differentiates the series eigenvalue in the quasi-momentum and compares it
with the free-wave gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from polywave.bloch import series_eigenpair
from polywave.errors import ConfigError
from polywave.lattice import ModelContext, PeriodicFunction, momentum
from polywave.nonres import energy_gaps


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
