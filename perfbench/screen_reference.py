#!/usr/bin/env python3
"""Record the reference outcomes of the ``screen`` workload.

The screen workload draws its momenta from fixed pools (one per size) and
checks every admission report against the outcome recorded here: the
admitted flag exactly, the three margins to a relative 1e-9.  A run's seed
only chooses the order in which it visits a pool, so every input any seed
can produce has a recorded outcome.

Re-record only when a change is meant to alter admission outcomes:

    python3 perfbench/screen_reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from polywave import __version__, nonres  # noqa: E402

POOL_SEED = 1805_03974
# size -> (momentum magnitude, pool entries)
POOLS = {"full": (16.0, 256), "tiny": (6.0, 8)}


def record_pool(ctx, radius, count):
    draws = workloads.unit_directions(np.random.default_rng(POOL_SEED), ctx.n)
    entries = []
    for _ in range(count):
        t, j = workloads.split_momentum(radius * next(draws))
        report = nonres.check_quasimomentum(ctx, t, j)
        margins = [report.margin_separation, report.margin_slack, report.margin_pair]
        if not all(math.isfinite(m) for m in margins):
            raise RuntimeError(f"non-finite margin at t={t}, j={j}: {margins}")
        entries.append({"t": t, "j": j, "admitted": report.admitted, "margins": margins})
    return entries


def main():
    ctx = workloads.Screen().ctx
    doc = {"polywave": __version__, "pool_seed": POOL_SEED}
    for size, (radius, count) in POOLS.items():
        doc[size] = {"k": radius, "entries": record_pool(ctx, radius, count)}
    workloads.SCREEN_REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    for size in POOLS:
        entries = doc[size]["entries"]
        admitted = sum(e["admitted"] for e in entries)
        print(f"{size}: {len(entries)} momenta, {admitted} admitted")


if __name__ == "__main__":
    main()
