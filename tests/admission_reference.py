"""Reference copy of the full-box admission check the shell screen replaced.

``check_quasimomentum`` enumerates every site of the box of sup-norm radius
``ceil(2k) + 2`` padded by ``ceil(k^beta)``, and sweeps it once per short
offset ``q`` for the pair condition.  The differential tests in
``test_nonres.py`` require ``polywave.nonres.check_quasimomentum`` to return
bitwise-equal reports: both evaluate the same ``energy_gaps`` on the same
sites and break ties the same way.
"""

import math

import numpy as np

from polywave.errors import ConfigError
from polywave.lattice import ModelContext, integer_grid
from polywave.nonres import K0, PAIR_FACTOR, NonResonanceReport, anchor, energy_gaps, exponents


def check_quasimomentum(ctx: ModelContext, t, j) -> NonResonanceReport:
    """Run all admission tests for the quasi-momentum ``p = t + j``."""
    a = anchor(ctx, t, j)
    t, j, k, rho = a.t, a.j, a.k, a.rho
    if any(not 0.0 <= c < 1.0 for c in t):
        raise ConfigError(f"t must lie in [0,1)^n, got {t}")
    if k < K0:
        raise ConfigError(f"momentum magnitude {k:.6g} is below the working floor K0 = {K0}")

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
    for q in q_list:
        shifted = tuple(slice(pad + int(c), pad + int(c) + side) for c in q)
        prod = PAIR_FACTOR * dist_box * dist[shifted]
        margin_pair = min(margin_pair, float(prod.min()) - threshold)

    return NonResonanceReport(
        **vars(a),
        box_radius=box_radius,
        cond_separation=margin_sep > 0.0,
        cond_slack=margin_slack >= 0.0,
        cond_pair=margin_pair > 0.0,
        margin_separation=margin_sep,
        margin_slack=margin_slack,
        margin_pair=margin_pair,
        worst_separation=worst_sep,
    )
