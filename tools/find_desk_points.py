#!/usr/bin/env python3
"""Locate and freeze the stored desk points used by the acceptance tests.

Two families are needed:

* order ``l=3`` (``delta=0.05``): admitted quasi-momenta exist at the exact
  radii ``k=8`` and ``k=10``, so seeded direction sampling suffices.
* order ``l=1`` (``delta=0.25``): the admission inequalities leave no room
  at any fixed radius near 8 or 10 -- the ring of lattice sites ``|i+p|
  close to |p|`` is too crowded -- so the momentum is searched over a thin
  annulus instead.  Cells that pass the bare inequalities are additionally
  pre-screened by diagonalizing small clusters of near-resonant sites:
  unit-coupled neighbors with nearly equal energy gaps hybridize, and the
  split level frequently lands inside the spectral window even though every
  individual gap clears the threshold.  Survivors are then verified against
  the sparse window oracle at two window radii, the series backend, the
  self-consistency loop, and its Newton refinement, so every stored point
  is known to work end to end.

Writes ``tests/fixtures/desk_points.json``.  Deterministic; run from the
repository root:

    python3 tools/find_desk_points.py
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.linalg

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from polywave import (  # noqa: E402
    ModelContext,
    check_quasimomentum,
    cosine_potential,
    decompose,
    diagonalize_oracle,
    iterate,
    residual,
    sample_nonresonant,
    series_eigenpair,
)
from polywave.errors import NumericalFailure, PolywaveError, ResonanceError  # noqa: E402
from polywave.galerkin import compare  # noqa: E402

OUT_PATH = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "desk_points.json"

COUPLING = 1e-3          # sigma |A|^2 for the nonlinear verification runs
SERIES_ORDER = 14        # order used when verifying the l=1 series tail
GAP_CAP = 10.0           # sites with larger minimal gap can never go resonant
CLUSTER_THRESH = 5.0     # gap magnitude below which a site joins a cluster


def _contexts(l: int, delta: float, n: int = 2):
    """Linear (sigma=0) and weakly nonlinear contexts with the standard V."""
    V = cosine_potential(n, (1.0,) * n)
    lin = ModelContext(n=n, l=l, sigma=0.0, A=1.0 + 0.0j, V=V, delta=delta)
    non = ModelContext(
        n=n, l=l, sigma=1.0, A=complex(math.sqrt(COUPLING)), V=V, delta=delta
    )
    return lin, non


def verify_point(l: int, delta: float, j, t, window: int) -> dict:
    """Run every desk-relevant pipeline at (j, t); raises on any failure.

    ``window`` is the oracle's default radius at (j, t), which the fixed
    point uses; the drift check also solves on a window four sites wider.
    """
    lin, non = _contexts(l, delta, n=len(j))
    j = tuple(int(c) for c in j)
    t = tuple(float(c) for c in t)

    rep = check_quasimomentum(lin, t, j)
    if not rep.admitted:
        raise ResonanceError("candidate lost admission during verification")

    dg1 = diagonalize_oracle(lin, lin.V, t, j, window=window)
    dg2 = diagonalize_oracle(lin, lin.V, t, j, window=window + 4)
    window_drift = abs(dg1.lam_gap - dg2.lam_gap)
    if window_drift > 1e-9:
        raise NumericalFailure(f"window drift {window_drift:.3e} exceeds 1e-9")

    series_ctx = replace(lin, r_max=SERIES_ORDER) if l == 1 else lin
    sp = series_eigenpair(series_ctx, lin.V, t, j)
    series_vs_diag = abs(sp.lam_gap - dg2.lam_gap)
    if not math.isfinite(sp.tail_bound):
        raise NumericalFailure("series tail did not certify at this point")
    if series_vs_diag > sp.tail_bound + 1e-9:
        raise NumericalFailure(
            f"series/diag disagreement {series_vs_diag:.3e} above tail bound"
        )

    backend = "diag" if l == 1 else "series"
    sol, trace = iterate(non, t, j, backend=backend)
    if sol is None:
        raise NumericalFailure("self-consistency loop did not converge")
    res = residual(non, sol)
    cmp_res = compare(non, sol)

    return {
        "window_drift": window_drift,
        "series_tail": sp.tail_bound,
        "series_vs_diag": series_vs_diag,
        "fp_steps": sol.steps,
        "fp_residual": res,
        "newton_d_lam": cmp_res.d_lam_gap,
        "newton_d_psi": cmp_res.d_psi,
        "slack_margin": rep.margin_slack,
    }


# ---------------------------------------------------------------------------
# l = 3: plain direction sampling at exact radius
# ---------------------------------------------------------------------------

def find_l3(k: float, seed: int) -> dict:
    lin, _ = _contexts(3, 0.05)
    stats = sample_nonresonant(replace(lin, seed=seed), k, 400)
    window = lin.m_lin(k)
    for rep in stats.reports:
        if not rep.admitted:
            continue
        try:
            metrics = verify_point(3, 0.05, rep.j, rep.t, window)
        except PolywaveError:
            continue
        return {
            "l": 3,
            "n": lin.n,
            "delta": 0.05,
            "beta": 0.4,
            "k": rep.k,
            "j": list(rep.j),
            "t": list(rep.t),
            "window": window,
            "metrics": metrics,
        }
    raise SystemExit(f"no verified l=3 desk point at k={k}")


# ---------------------------------------------------------------------------
# l = 1: annulus search with hybridization pre-screening
# ---------------------------------------------------------------------------

def _ring_geometry(k_hi: float):
    """Sites whose gap can ever be small in the annulus, with adjacency."""
    box = math.ceil(2 * k_hi) + 2 + math.ceil(k_hi ** 0.4)
    keep = []
    for a in range(-box, box + 1):
        for b in range(-box, box + 1):
            if (a, b) == (0, 0):
                continue
            r = math.hypot(a, b)
            if r * r - 2.0 * k_hi * r < GAP_CAP:
                keep.append((a, b))
    arr = np.array(keep, dtype=float)
    key = {s: ix for ix, s in enumerate(keep)}
    nbrs = [
        [key[nb] for nb in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1)) if nb in key]
        for (a, b) in keep
    ]
    return arr, (arr ** 2).sum(axis=1), nbrs


def _cluster_min_level(gaps: np.ndarray, nbrs) -> float:
    """Smallest |level| of hybridized near-resonant clusters (plus a shell).

    Models the windowed operator restricted to connected groups of
    small-gap sites together with their immediate neighbors; the smallest
    eigenvalue magnitude predicts how close a stray level comes to the
    band's spectral window.
    """
    small = set(np.flatnonzero(np.abs(gaps) < CLUSTER_THRESH).tolist())
    seen: set = set()
    worst = math.inf
    for s in list(small):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if v in small and v not in seen:
                    seen.add(v)
                    comp.append(v)
                    stack.append(v)
        shell = sorted(
            {v for u in comp for v in nbrs[u] if v not in small}
        )
        block = comp + shell
        loc = {u: i for i, u in enumerate(block)}
        mat = np.zeros((len(block), len(block)))
        for u in block:
            mat[loc[u], loc[u]] = gaps[u]
            for v in nbrs[u]:
                if v in loc:
                    mat[loc[u], loc[v]] = 1.0
        levels = scipy.linalg.eigvalsh(mat)
        worst = min(worst, float(np.min(np.abs(levels))))
    return worst


def find_l1(k_lo: float, k_hi: float, delta: float, seed: int, samples: int) -> dict:
    arr, r2, nbrs = _ring_geometry(k_hi)
    rng = np.random.default_rng(seed)
    candidates = []
    chunk = 20000
    for _ in range(samples // chunk):
        k = np.sqrt(rng.uniform(k_lo ** 2, k_hi ** 2, chunk))
        phi = rng.uniform(0.0, 2.0 * np.pi, chunk)
        p = np.stack([k * np.cos(phi), k * np.sin(phi)], axis=1)
        min_gap = np.abs(r2[None, :] + 2.0 * (p @ arr.T)).min(axis=1)
        rho = np.linalg.norm(p, axis=1) ** (-delta)
        for q in p[min_gap >= 2.0 * rho + 0.005]:
            candidates.append(q.copy())
    scored = []
    for q in candidates:
        gaps = r2 + 2.0 * (arr @ q)
        level = _cluster_min_level(gaps, nbrs)
        k = float(np.linalg.norm(q))
        scored.append((level - k ** -delta, k, q))
    scored.sort(key=lambda s: -s[0])

    for margin, k, q in scored:
        if margin < 0.05:
            break
        j, t = decompose(q)
        j = tuple(int(c) for c in j)
        t = tuple(float(c) for c in t)
        lin, _ = _contexts(1, delta)
        if not check_quasimomentum(lin, t, j).admitted:
            continue
        window = lin.m_lin(k)
        try:
            metrics = verify_point(1, delta, j, t, window)
        except PolywaveError:
            continue
        return {
            "l": 1,
            "n": lin.n,
            "delta": delta,
            "beta": 0.4,
            "k": k,
            "j": list(j),
            "t": list(t),
            "window": window,
            "metrics": metrics,
        }
    raise SystemExit(f"no verified l=1 desk point in [{k_lo}, {k_hi}]")


def main() -> None:
    t0 = time.time()
    points = {}
    points["l3_k8"] = find_l3(8.0, seed=0)
    print(f"l3_k8  ok  ({time.time() - t0:.0f}s)")
    points["l3_k10"] = find_l3(10.0, seed=0)
    print(f"l3_k10 ok  ({time.time() - t0:.0f}s)")
    points["l1_k8"] = find_l1(7.3, 8.7, delta=0.25, seed=5, samples=4_400_000)
    print(f"l1_k8  ok  ({time.time() - t0:.0f}s)")
    points["l1_k10"] = find_l1(9.6, 10.4, delta=0.25, seed=5, samples=4_400_000)
    print(f"l1_k10 ok  ({time.time() - t0:.0f}s)")

    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    with OUT_PATH.open("w") as fh:
        json.dump(points, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT_PATH}")
    for label, entry in sorted(points.items()):
        m = entry["metrics"]
        print(
            f"  {label}: k={entry['k']:.9f} j={tuple(entry['j'])} "
            f"residual={m['fp_residual']:.2e} newton={m['newton_d_psi']:.2e}"
        )


if __name__ == "__main__":
    main()
