"""Newton refinement of candidate waves on a fixed frequency support.

This is an independent check on the perturbative solvers: it knows nothing
about contour integrals or spectral projectors.  Given any reasonable
starting wave it solves the projected nonlinear system

    F_q = (mu_q - lam) psi_q + (V psi)_q + sigma (psi |psi|^2)_q = 0,
    q in the working support S,

for the coefficients and the eigenvalue simultaneously.  Solutions come in
a two-real-parameter family (amplitude and global phase), so the anchor
coefficient ``psi_0`` is pinned to its starting value; that removes both
gauge directions at once.  The remaining system is formally one equation
over-determined, but one real equation is identically redundant (the
imaginary part of <psi, F> vanishes for any real-valued potential), so a
least-squares solve drives the residual to machine zero when the starting
point is inside the Newton basin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ContractError, NewtonFailure, NonConvergence
from .fixedpoint import Wave, defect
from .lattice import ModelContext, PeriodicFunction, _resize, abs_squared, multiply, star_norm
from .nonres import anchor, energy_gaps

NEWTON_TOL = 1e-12
NEWTON_MAX_STEPS = 20
LINE_SEARCH_HALVINGS = 10


def newton_solve(
    ctx: ModelContext,
    t,
    j,
    psi_init: PeriodicFunction,
    lam_gap_init: float,
    defect_init: Optional[np.ndarray] = None,
) -> Tuple[Wave, int]:
    """Refine (psi, lam) by a damped least-squares Newton iteration.

    ``lam_gap_init`` is the eigenvalue measured from the unperturbed energy;
    ``defect_init``, the ``defect`` box of the start where the caller holds it.
    Returns the refined wave and the number of Newton steps taken;
    raises ``NewtonFailure`` on a singular Jacobian or a failed line search,
    and ``NonConvergence`` when ``NEWTON_MAX_STEPS`` run out.
    """
    a = anchor(ctx, t, j)
    t, j = a.t, a.j
    if abs(psi_init.get((0,) * ctx.n)) == 0.0:
        raise ContractError("anchor coefficient psi_0 must be nonzero for gauge pinning")

    # The working support S is the stored frequencies of psi_init (anchor
    # included), in lexicographic order; ``cells`` are their flat positions
    # in the box of radius R that holds them.
    R = psi_init.box_radius
    offsets, _ = psi_init.nonzero()
    cells = np.flatnonzero(psi_init.box)
    nS = cells.size
    free = cells != psi_init.box.size // 2
    gaps = energy_gaps(ctx, t, j, offsets)

    amp = abs(ctx.A) if ctx.A else 1.0

    def projected(psi: PeriodicFunction, dlam: float) -> np.ndarray:
        return defect(ctx, t, j, psi, dlam, R).ravel()[cells]

    psi = psi_init
    dlam = float(lam_gap_init)
    F = projected(psi, dlam) if defect_init is None else _resize(defect_init, R).ravel()[cells]
    steps = 0

    while True:
        if math.fsum(np.abs(F)) / amp < NEWTON_TOL:
            break
        if steps >= NEWTON_MAX_STEPS:
            raise NonConvergence(
                f"residual {math.fsum(np.abs(F)) / amp:.3e} still above {NEWTON_TOL:.1e} "
                f"after {NEWTON_MAX_STEPS} steps"
            )
        steps += 1
        if steps == 1:
            # q - p and q + p for q, p in S, as flat positions in a box of
            # radius 2R; built on the first step, since a confirmed wave takes none.
            side = 4 * R + 1
            lin = offsets @ side ** np.arange(ctx.n - 1, -1, -1)
            middle = side ** ctx.n // 2
            at_diff = middle + lin[:, None] - lin[None, :]
            at_sum = middle + lin[:, None] + lin[None, :]

        # J1[q, p] = V_{q-p} + 2 sigma |psi|^2_{q-p}, J2[q, p] = sigma psi^2_{q+p}.
        coupling = ctx.V.to_box(2 * R) + 2.0 * ctx.sigma * abs_squared(psi).to_box(2 * R)
        J1 = coupling.ravel()[at_diff]
        J1[np.arange(nS), np.arange(nS)] += gaps - dlam
        J2 = ctx.sigma * multiply(psi, psi).to_box(2 * R).ravel()[at_sum]

        # Real-imaginary split.  Columns: (Re psi_p, Im psi_p) for free p,
        # then dlam.  dF = J1 da+idb + J2 da-idb - psi ddlam.
        plus = (J1 + J2)[:, free]
        minus = (J1 - J2)[:, free]
        ncols = 2 * (nS - 1) + 1
        Jr = np.empty((2 * nS, ncols))
        Jr[:nS, 0:-1:2] = plus.real
        Jr[nS:, 0:-1:2] = plus.imag
        Jr[:nS, 1:-1:2] = -minus.imag
        Jr[nS:, 1:-1:2] = minus.real
        psi_box = psi.to_box(R)
        psi_vec = psi_box.ravel()[cells]
        Jr[:nS, -1] = -psi_vec.real
        Jr[nS:, -1] = -psi_vec.imag

        rhs = -np.concatenate([F.real, F.imag])
        step, _, rank, _ = np.linalg.lstsq(Jr, rhs, rcond=None)
        if rank < ncols:
            raise NewtonFailure(
                f"Jacobian rank {rank} < {ncols}: the projected system is degenerate"
            )
        move = step[:-1].view(complex)   # (Re, Im) pairs of the free coefficients

        # Damped update with a strict-decrease backtracking line search.
        f0 = float(np.linalg.norm(F))
        scale = 1.0
        for _ in range(LINE_SEARCH_HALVINGS + 1):
            trial_box = psi_box.copy()
            trial_box.ravel()[cells[free]] += scale * move
            trial_psi = PeriodicFunction.from_box(trial_box)
            trial_dlam = dlam + scale * float(step[-1])
            trial_F = projected(trial_psi, trial_dlam)
            if float(np.linalg.norm(trial_F)) < f0:
                psi, dlam, F = trial_psi, trial_dlam, trial_F
                break
            scale *= 0.5
        else:
            raise NewtonFailure(
                f"line search found no descent after {LINE_SEARCH_HALVINGS} halvings "
                f"(|F| = {f0:.3e})"
            )

    return Wave(**vars(a), lam_gap=float(dlam), psi=psi), steps


@dataclass(frozen=True)
class RefinementComparison:
    """How far a candidate wave moved under Newton refinement."""

    d_lam_gap: float
    d_psi: float
    rel_lam_gap: float
    steps: int


def compare(ctx: ModelContext, wave: Wave, box=None) -> RefinementComparison:
    """Refine ``wave`` (its ``defect`` ``box`` where the caller holds it) and
    report the displacement; small means confirmed."""
    refined, steps = newton_solve(ctx, wave.t, wave.j, wave.psi, wave.lam_gap, box)
    d_lam = abs(refined.lam_gap - wave.lam_gap)
    denom = max(abs(refined.lam_gap), abs(wave.lam_gap), 1e-300)
    return RefinementComparison(
        d_lam_gap=d_lam,
        d_psi=star_norm(refined.psi - wave.psi),
        rel_lam_gap=d_lam / denom,
        steps=steps,
    )
