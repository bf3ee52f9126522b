"""The benchmark workloads: seeded inputs, one op each, and its output check.

Every workload draws its inputs from the ``--seed`` argument alone; the
package only ever sees the generated configs, directions and momenta.
Inputs are interleaved by energy, so that any stretch of a run mixes the
energies evenly.

Output checks use the acceptance gate's tolerances and must never be
loosened.  ``reference`` names the host-speed kernel (``hostspeed.py``)
whose kind of work, interpreter or array, dominates the op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import polywave.cli
from polywave import bloch, iso, nonres
from polywave.errors import ResonanceError
from polywave.lattice import ModelContext, cosine_potential

HERE = Path(__file__).resolve().parent
DESK_POINTS = HERE.parent / "tests" / "fixtures" / "desk_points.json"
SCREEN_REFERENCE = HERE / "screen_reference.json"

# Acceptance-gate tolerances (criterion 06 and the surface root certificate).
RESIDUAL_TOL = 1e-8          # solution.json residual, strict
NEWTON_MOVE_TOL = 1e-9       # verify.json Newton moves in lambda-gap and psi, strict
SCREEN_MARGIN_RTOL = 1e-9    # admission margins against the recorded reference

COUPLING = 1e-3              # sigma |A|^2 of the nonlinear workloads


class CheckFailed(Exception):
    """An op finished but its output did not pass the workload's check."""


class CliFailure(Exception):
    """A CLI command returned a non-zero exit code."""

    # The CLI reports the exception class only through its message prefix.
    PREFIXES = {
        "configuration error": "ConfigError",
        "did not converge": "NonConvergence",
        "numerical failure": "NumericalFailure",
        "error": "PolywaveError",
    }

    def __init__(self, exit_code, message):
        super().__init__(message)
        self.exit_code = exit_code
        prefix = message.split(":", 1)[0]
        self.error_class = self.PREFIXES.get(prefix, "unknown")


def failure_record(exc, stage):
    """Error class, message, exit code and hole flag of an op that failed in
    ``stage`` ("op" while it ran, "check" when its output was checked)."""
    if isinstance(exc, CliFailure):
        return {"stage": stage, "class": exc.error_class, "message": str(exc),
                "exit_code": exc.exit_code, "hole": False}
    return {"stage": stage, "class": type(exc).__name__, "message": str(exc),
            "exit_code": None, "hole": isinstance(exc, ResonanceError)}


def digest(inputs):
    """SHA-256 of the canonical JSON form of a workload's inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def unit_directions(rng, n):
    """Endless stream of uniformly distributed unit vectors in R^n."""
    while True:
        v = rng.standard_normal(n)
        norm = float(np.linalg.norm(v))
        if norm > 1e-12:
            yield v / norm


def split_momentum(p):
    """Write a momentum as ``t + j`` with integer ``j`` and ``t`` in [0, 1)^n."""
    p = np.asarray(p, dtype=float)
    j = np.floor(p)
    t = p - j
    high = t >= 1.0
    j = j + high
    t = np.where(high, 0.0, t)
    return [float(c) for c in t], [int(c) for c in j]


def model_context(n, l, sigma, amplitude, **controls):
    """Context with the standard potential V = sum_s 2 cos x_s."""
    return ModelContext(n=n, l=l, sigma=sigma, A=complex(amplitude),
                        V=cosine_potential(n, (1.0,) * n), **controls)


def model_text(n, l, sigma, amplitude, **controls):
    """The CLI config lines that describe ``model_context(...)``."""
    lines = [f"n = {n}", f"l = {l}", f"sigma = {sigma!r}", f"A = {amplitude!r}"]
    lines += [f"{key} = {value!r}" for key, value in sorted(controls.items())]
    for axis in range(n):
        for sign in (1, -1):
            q = [0] * n
            q[axis] = sign
            lines.append(f"v.{','.join(str(c) for c in q)} = 1.0")
    return "\n".join(lines) + "\n"


def state_config(model, t, j):
    """Config text for one state: the model plus its quasi-momentum."""
    return (model + f"t = {','.join(repr(c) for c in t)}\n"
            + f"j = {','.join(str(c) for c in j)}\n")


def admitted_momenta(ctx, rng, radius, count, max_draws=20000):
    """The first ``count`` seeded momenta of magnitude ``radius`` that pass
    admission, as ``(direction, t, j)``."""
    found = []
    draws = unit_directions(rng, ctx.n)
    for _ in range(max_draws):
        omega = next(draws)
        t, j = split_momentum(radius * omega)
        if nonres.check_quasimomentum(ctx, t, j).admitted:
            found.append(([float(c) for c in omega], t, j))
            if len(found) == count:
                return found
    raise RuntimeError(
        f"only {len(found)} of {count} admitted momenta at radius {radius} "
        f"within {max_draws} draws"
    )


def interleave(groups):
    """[[a0, a1], [b0, b1]] -> [a0, b0, a1, b1]."""
    return [item for row in zip(*groups) for item in row]


def run_cli(argv):
    """Run one CLI command in-process; raise ``CliFailure`` on a non-zero exit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = polywave.cli.main(argv)
    if code != 0:
        raise CliFailure(code, err.getvalue().strip())


def check_state(out):
    """Output check of a fixed-point + verify op writing under ``out``."""
    solution = json.loads((out / "fixed-point" / "solution.json").read_text())
    verify = json.loads((out / "verify" / "verify.json").read_text())
    if not solution["residual"] < RESIDUAL_TOL:
        raise CheckFailed(f"solution residual {solution['residual']!r} >= {RESIDUAL_TOL}")
    for key in ("newton_d_lam_gap", "newton_d_psi"):
        if not verify[key] < NEWTON_MOVE_TOL:
            raise CheckFailed(f"verify {key} {verify[key]!r} >= {NEWTON_MOVE_TOL}")


def solve_and_verify(model, config, out, backend=None):
    """CLI ``fixed-point`` on ``config`` and then ``verify`` on its solution."""
    fixed = out / "fixed-point"
    argv = ["fixed-point", "--config", str(config), "--out", str(fixed)]
    if backend is not None:
        argv += ["--backend", backend]
    run_cli(argv)
    verify_cfg = out / "verify.cfg"
    verify_cfg.write_text(model + f"solution = {fixed / 'solution.json'}\n")
    run_cli(["verify", "--config", str(verify_cfg), "--out", str(out / "verify")])
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Certify:
    """CLI fixed-point (series backend) then verify on admitted momenta."""

    name = "certify"
    reference = "python"
    SIZES = {"full": ((8.0, 12.0, 16.0), 4), "tiny": ((8.0,), 1)}

    def __init__(self):
        amplitude = math.sqrt(COUPLING)
        self.ctx = model_context(2, 3, 1.0, amplitude)
        self.model = model_text(2, 3, 1.0, amplitude)

    def inputs(self, seed, size):
        radii, per_radius = self.SIZES[size]
        rng = np.random.default_rng([seed, 1])
        groups = [
            [{"k": k, "t": t, "j": j}
             for _, t, j in admitted_momenta(self.ctx, rng, k, per_radius)]
            for k in radii
        ]
        return interleave(groups)

    def prepare(self, inputs, work):
        for index, inp in enumerate(inputs):
            inp["config"] = str(work / f"state{index}.cfg")
            Path(inp["config"]).write_text(state_config(self.model, inp["t"], inp["j"]))
        self.op(inputs[0], work / "warm-up")

    def op(self, inp, out):
        return solve_and_verify(self.model, inp["config"], out)

    def check(self, inp, out):
        check_state(out)


class Crosscheck:
    """CLI fixed-point (dense oracle) then verify on the stored l=1 desk.

    Only the k~8 desk is used: its op (6-10 s) fits several times into one
    run, where the k~10 desk (14-21 s) would fit once.  The inputs do not
    depend on the seed.
    """

    name = "crosscheck"
    reference = "python"
    DESKS = ("l1_k8",)

    def inputs(self, seed, size):
        points = json.loads(DESK_POINTS.read_text())
        return [
            {key: points[name][key] for key in ("l", "delta", "beta", "t", "j", "k")}
            | {"desk": name}
            for name in self.DESKS
        ]

    def prepare(self, inputs, work):
        amplitude = math.sqrt(COUPLING)
        for inp in inputs:
            inp["model"] = model_text(2, inp["l"], 1.0, amplitude,
                                      delta=inp["delta"], beta=inp["beta"])
            inp["config"] = str(work / f"{inp['desk']}.cfg")
            Path(inp["config"]).write_text(state_config(inp["model"], inp["t"], inp["j"]))
        # Warm up the oracle path once.
        run_cli(["linear-eig", "--config", inputs[0]["config"],
                 "--out", str(work / "warm-up"), "--backend", "diag"])

    def op(self, inp, out):
        return solve_and_verify(inp["model"], inp["config"], out, backend="diag")

    def check(self, inp, out):
        check_state(out)


class Surface:
    """iso.kappa_solve along directions whose base momentum is admitted."""

    name = "surface"
    reference = "python"
    SIZES = {"full": ((8.0, 10.0, 12.0), 2), "tiny": ((8.0,), 1)}

    def __init__(self):
        self.ctx = model_context(2, 3, 0.0, 1.0)

    def inputs(self, seed, size):
        radii, per_radius = self.SIZES[size]
        rng = np.random.default_rng([seed, 3])
        groups = []
        for kt in radii:
            lam = kt ** (2 * self.ctx.l)
            base, _ = iso.reference_radius(self.ctx, lam)
            groups.append([
                {"lam": lam, "direction": omega, "t": t, "j": j}
                for omega, t, j in admitted_momenta(self.ctx, rng, base, per_radius)
            ])
        return interleave(groups)

    def prepare(self, inputs, work):
        inp = inputs[0]
        bloch.series_eigenpair(self.ctx, self.ctx.V, inp["t"], inp["j"])

    def op(self, inp, out):
        return iso.kappa_solve(self.ctx, inp["lam"], inp["direction"])

    def check(self, inp, sample):
        """Re-evaluate F(h) at the returned radius; require |F| <= tol_root."""
        ctx, lam = self.ctx, inp["lam"]
        kt, c0 = iso.reference_radius(ctx, lam)
        h, kappa = sample.h, sample.kappa
        if abs(kappa - (kt + h)) > 4.0 * np.spacing(kappa):
            raise CheckFailed(f"kappa {kappa!r} != ktilde + h = {kt + h!r}")
        t, j = split_momentum(kappa * np.asarray(inp["direction"]))
        pair = bloch.series_eigenpair(ctx, ctx.V, t, j)
        two_l = 2 * ctx.l
        powsum = math.fsum(kappa ** s * kt ** (two_l - 1 - s) for s in range(two_l))
        sig2 = ctx.sigma * abs(ctx.A) ** 2
        col_sq = math.fsum(abs(c) ** 2 for _, c in pair.proj_column.items())
        f = h * powsum + c0 + pair.lam_gap + sig2 * col_sq - sig2
        tol = ctx.tol_root if ctx.tol_root is not None else 1e-9 * abs(lam)
        if not abs(f) <= tol:
            raise CheckFailed(f"|F(h)| = {abs(f):.3e} exceeds tol_root {tol:.3e}")


class Screen:
    """nonres.check_quasimomentum at n=3, checked against recorded outcomes."""

    name = "screen"
    reference = "numpy"
    DRAWS = 32

    def __init__(self):
        self.ctx = model_context(3, 3, 0.0, 1.0)

    def inputs(self, seed, size):
        pool = json.loads(SCREEN_REFERENCE.read_text())[size]["entries"]
        order = np.random.default_rng([seed, 4]).permutation(len(pool))
        return [dict(pool[i], index=int(i)) for i in order[: self.DRAWS]]

    def prepare(self, inputs, work):
        self.op(inputs[0], work)

    def op(self, inp, out):
        return nonres.check_quasimomentum(self.ctx, inp["t"], inp["j"])

    def check(self, inp, report):
        if report.admitted != inp["admitted"]:
            raise CheckFailed(f"admitted {report.admitted} != reference {inp['admitted']}")
        got = (report.margin_separation, report.margin_slack, report.margin_pair)
        for name, value, ref in zip(("separation", "slack", "pair"), got, inp["margins"]):
            if not abs(value - ref) <= SCREEN_MARGIN_RTOL * max(abs(value), abs(ref)):
                raise CheckFailed(f"margin_{name} {value!r} != reference {ref!r}")


WORKLOADS = {w.name: w for w in (Certify, Surface, Screen, Crosscheck)}
