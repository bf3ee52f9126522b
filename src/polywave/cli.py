"""Command-line front end.

Five subcommands cover the library surface:

* ``linear-eig``: one spectral solve at a fixed quasi-momentum;
* ``nonres-scan``: admission statistics over random directions at fixed k;
* ``fixed-point``: the self-consistent cubic solve with its audit trace;
* ``isoenergetic``: surface radii over many directions at a fixed energy;
* ``verify``: residual plus independent Newton confirmation of a stored
  solution.

Every run writes its artifacts plus a ``manifest.json`` keyed by SHA-256
digests, and contains no timestamps, so a repeated run with the same
configuration and seed reproduces the output byte for byte.  Exit codes:
0 success, 2 configuration problems, 3 numerical failures (including
admission rejections), 4 exhausted iteration budgets.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from . import __version__
from .bloch import BlochEigenpair, diagonalize_oracle, series_eigenpair
from .config import RunConfig, parse_config
from .errors import ConfigError, ContractError, NonConvergence, NumericalFailure, PolywaveError
from .fixedpoint import Solution, Wave, contraction_report, defect, iterate, residual
from .galerkin import compare
from .iso import sample_surface
from .lattice import from_json_dict, to_json_dict
from .nonres import anchor, exponents, k1_threshold, sample_nonresonant


# ---------------------------------------------------------------------------
# formatting and serialization helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _nulled(obj):
    """A copy of ``obj`` with every non-finite float replaced by ``None``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _nulled(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nulled(value) for value in obj]
    return obj


def _complex_pair(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


def _unique_keys(pairs) -> dict:
    """A JSON object's dict, refusing a key given twice (``json`` keeps the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError("a JSON object repeats a key")
    return obj


def _eigenpair_dict(pair: BlochEigenpair) -> dict:
    """The band block: what only the band solve knows.  The anchor and the
    column are the caller's (a solution holds the column as ``psi / A``)."""
    return {
        "lam_gap": pair.lam_gap,
        "rho": pair.rho,
        "e_jj": pair.e_jj,
        "g_terms": [_complex_pair(g) for g in pair.g_terms],
        "G_norms": list(pair.G_norms),
        "tail_bound": pair.tail_bound,
        "tail_bound_column": pair.tail_bound_column,
        "tail_certified": pair.tail_certified,
        "quad_err": pair.quad_err,
        "quad_nodes": pair.quad_nodes,
    }


def _solution_dict(sol: Solution, res: float) -> dict:
    return {
        "backend": sol.eigenpair.backend,
        "t": list(sol.t),
        "j": list(sol.j),
        "k": sol.k,
        "center": sol.center,
        "lam": sol.lam,
        "lam_gap": sol.lam_gap,
        "w_mean": sol.w_mean,
        "sigma_abs2": sol.sigma_abs2,
        "asym_remainder": sol.asym_remainder,
        "steps": sol.steps,
        "certified": sol.certified,
        "residual": res,
        "psi": to_json_dict(sol.psi),
        "eigenpair": _eigenpair_dict(sol.eigenpair),
    }


class _OutputDir:
    """Writes artifacts and accumulates their digests for the manifest.

    The one place that decides how a value is written: JSON is strict
    (``allow_nan=False``) and writes a non-finite float as ``null``, CSV
    writes it as ``nan``.
    """

    def __init__(self, root: Path):
        self.root = root
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {root}: {exc}") from exc
        self.digests: dict = {}

    def _register(self, name: str, data: bytes) -> None:
        (self.root / name).write_bytes(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()

    def write_json(self, name: str, obj) -> None:
        data = json.dumps(_nulled(obj), sort_keys=True, indent=2, allow_nan=False)
        self._register(name, (data + "\n").encode())

    def write_csv(self, name: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for cell in row:
                if isinstance(cell, bool):
                    cells.append("1" if cell else "0")
                elif isinstance(cell, (int, np.integer)):
                    cells.append(str(int(cell)))
                elif isinstance(cell, (float, np.floating)):
                    cells.append(_fmt(cell) if math.isfinite(cell) else "nan")
                else:
                    cells.append(str(cell))
            lines.append(",".join(cells))
        self._register(name, ("\n".join(lines) + "\n").encode())

    def write_manifest(self, command: str, config_digest: str, seed: int) -> None:
        # the outputs are copied before the manifest's own digest is registered
        self.write_json("manifest.json", {
            "command": command,
            "config_sha256": config_digest,
            "outputs": dict(self.digests),
            "seed": seed,
            "version": __version__,
        })


def _require(cfg: RunConfig, command: str, **fields):
    missing = [name for name, value in fields.items() if value is None]
    if missing:
        raise ConfigError(
            f"command {command!r} needs config key(s): {', '.join(sorted(missing))}"
        )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_linear_eig(cfg: RunConfig, out: _OutputDir, backend: str) -> None:
    _require(cfg, "linear-eig", t=cfg.t, j=cfg.j)
    solve = diagonalize_oracle if backend == "diag" else series_eigenpair
    pair = solve(cfg.ctx, cfg.ctx.V, cfg.t, cfg.j)
    out.write_json("eigenpair.json", {
        **_eigenpair_dict(pair), "backend": pair.backend, "lam": pair.lam, "center": pair.center,
        "k": pair.k, "t": list(pair.t), "j": list(pair.j),
        "column": to_json_dict(pair.proj_column),
    })


def _cmd_nonres_scan(cfg: RunConfig, out: _OutputDir) -> None:
    _require(cfg, "nonres-scan", k=cfg.k, samples=cfg.samples)
    ctx = cfg.ctx
    stats = sample_nonresonant(ctx, cfg.k, cfg.samples)
    out.write_json(
        "scan.json",
        {
            "k": cfg.k,
            "samples": cfg.samples,
            "admitted": stats.admitted,
            "fraction": stats.fraction,
            "failed_separation": stats.failed_separation,
            "failed_slack": stats.failed_slack,
            "failed_pair": stats.failed_pair,
            **vars(exponents(ctx)),
            "k1_threshold": k1_threshold(ctx),
        },
    )
    header = (
        ["draw"]
        + [f"dir{a+1}" for a in range(ctx.n)]
        + [f"j{a+1}" for a in range(ctx.n)]
        + [f"t{a+1}" for a in range(ctx.n)]
        + ["admitted", "margin_separation", "margin_slack", "margin_pair"]
    )
    rows = []
    for idx, (omega, rep) in enumerate(zip(stats.directions, stats.reports)):
        rows.append(
            [idx]
            + list(omega)
            + list(rep.j)
            + list(rep.t)
            + [rep.admitted, rep.margin_separation, rep.margin_slack, rep.margin_pair]
        )
    out.write_csv("draws.csv", header, rows)


def _cmd_fixed_point(cfg: RunConfig, out: _OutputDir, backend: str) -> None:
    _require(cfg, "fixed-point", t=cfg.t, j=cfg.j)
    sol, trace = iterate(cfg.ctx, cfg.t, cfg.j, backend=backend)
    header = ["m", "d_w", "lam_gap", "d_col", "d_psi", "tail"]
    out.write_csv(
        "trace.csv",
        header,
        [[r.m, r.d_w, r.lam_gap, r.d_col, r.d_psi, r.tail] for r in trace.rows],
    )
    if sol is None:
        last = f"last increment {trace.rows[-1].d_w:.3e}, " if trace.rows else ""
        raise NonConvergence(
            f"no fixed point within {len(trace.rows)} steps "
            f"({last}tolerance {cfg.ctx.tol_fp_value:.3e})"
        )
    res = residual(cfg.ctx, sol)
    doc = _solution_dict(sol, res)
    doc["contraction"] = vars(contraction_report(cfg.ctx, trace, sol.k))
    out.write_json("solution.json", doc)


def _cmd_isoenergetic(cfg: RunConfig, out: _OutputDir) -> None:
    _require(cfg, "isoenergetic", **{"lambda": cfg.lam, "samples": cfg.samples})
    ctx = cfg.ctx
    scan = sample_surface(ctx, cfg.lam, cfg.samples)
    samples = scan.resolved
    kappas = scan.kappa_values
    out.write_json(
        "surface.json",
        {
            "lambda": cfg.lam,
            "requested": scan.requested,
            "resolved": len(samples),
            "holes": scan.holes,
            "failures": scan.failures,
            "kappa_min": float(kappas.min()) if samples else None,
            "kappa_max": float(kappas.max()) if samples else None,
            "kappa_mean": float(kappas.mean()) if samples else None,
            "h_max_abs": max((abs(s.h) for s in samples), default=None),
        },
    )
    header = (
        ["draw", "status"]
        + [f"dir{a+1}" for a in range(ctx.n)]
        + ["kappa", "h", "f_at_root", "evals", "error"]
    )
    rows = []
    for idx, draw in enumerate(scan.draws):
        s = draw.sample
        if s is None:
            root = [math.nan, math.nan, math.nan, 0]
        else:
            root = [s.kappa, s.h, s.f_at_root, s.evals]
        rows.append([idx, draw.status] + list(draw.direction) + root + [draw.error or ""])
    out.write_csv("surface.csv", header, rows)


def _cmd_verify(cfg: RunConfig, out: _OutputDir) -> None:
    _require(cfg, "verify", solution=cfg.solution)
    path = Path(cfg.solution)
    ctx = cfg.ctx
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read solution file {path}: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
        wave = Wave(
            **vars(anchor(ctx, doc["t"], doc["j"])),
            lam_gap=float(doc["lam_gap"]),
            psi=from_json_dict(doc["psi"], n=ctx.n),
        )
        if not math.isfinite(wave.lam_gap):
            raise ValueError(f"lam_gap = {wave.lam_gap} is not finite")
        if wave.psi.get((0,) * ctx.n) == 0:
            raise ValueError("psi has no anchor coefficient psi_0")
    except (ValueError, OverflowError, KeyError, TypeError, AttributeError, ContractError) as exc:
        raise ConfigError(f"solution file {path} is malformed: {exc!r}") from exc
    box = defect(ctx, wave.t, wave.j, wave.psi, wave.lam_gap)    # formed once, read twice
    res = residual(ctx, wave, box)
    ref = compare(ctx, wave, box)
    out.write_json(
        "verify.json",
        {
            "residual": res,
            "stored_residual": doc.get("residual"),
            **{f"newton_{key}": value for key, value in vars(ref).items()},
        },
    )


_COMMANDS = {
    "linear-eig": _cmd_linear_eig,
    "nonres-scan": _cmd_nonres_scan,
    "fixed-point": _cmd_fixed_point,
    "isoenergetic": _cmd_isoenergetic,
    "verify": _cmd_verify,
}
# The commands that solve a band, and so take the --backend flag.
_BAND_COMMANDS = ("linear-eig", "fixed-point")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polywave",
        description="Quasi-periodic waves of cubic polyharmonic lattice models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key=value run file")
        p.add_argument("--out", required=True, help="output directory")
        if name in _BAND_COMMANDS:
            p.add_argument(
                "--backend", choices=("series", "diag"), default="series",
                help="spectral backend",
            )
    return parser


# Built once: parsing leaves it unchanged, and building it costs about 1 ms.
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        cfg = parse_config(text)

        out = _OutputDir(Path(args.out))
        options = {"backend": args.backend} if args.command in _BAND_COMMANDS else {}
        _COMMANDS[args.command](cfg, out, **options)
        out.write_manifest(
            args.command,
            hashlib.sha256(text.encode()).hexdigest(),
            cfg.ctx.seed,
        )
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonConvergence as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 4
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PolywaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
