"""Run configuration parsing and the command-line entry points."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from polywave import cli, config, fixedpoint, galerkin
from polywave.bloch import QUAD_NODES
from polywave.cli import main
from polywave.config import parse_config
from polywave.errors import ConfigError
from polywave.lattice import BOX_SITES_MAX, ModelContext
from polywave.nonres import energy_gaps

DESK_T = (0.37982347232642333, 0.2509856775414585)
DESK_J = (3, 7)

MODEL_L3 = "\n".join(
    [
        "n = 2",
        "l = 3",
        "v.1,0 = 1.0",
        "v.-1,0 = 1.0",
        "v.0,1 = 1.0",
        "v.0,-1 = 1.0",
    ]
)

MODEL_L3_NL = MODEL_L3 + "\n" + "\n".join(
    [
        "sigma = 1.0",
        f"A = {math.sqrt(1e-3)!r}",
    ]
)


def desk_lines():
    return [
        f"t = {DESK_T[0]!r},{DESK_T[1]!r}",
        f"j = {DESK_J[0]},{DESK_J[1]}",
    ]


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body + "\n")
    return str(path)


# -- parsing ----------------------------------------------------------

def test_parse_minimal_config():
    cfg = parse_config(MODEL_L3 + "\nt = 0.1,0.2\nj = 5,1\n")
    assert cfg.ctx.n == 2 and cfg.ctx.l == 3
    assert cfg.ctx.v_star == 4.0
    assert cfg.t == (0.1, 0.2)
    assert cfg.j == (5, 1)


def test_parse_comments_and_blanks():
    cfg = parse_config("# header\n\nn = 2  # inline\nl = 3\nv.1,0 = 1\nv.-1,0 = 1\n")
    assert cfg.ctx.l == 3
    assert len(cfg.ctx.V) == 2


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("n = 2\nl = 3\nwhat = 1", "line 3"),
        ("n = 2\nn = 2\nl = 3", "duplicate key"),
        ("n = 2\nl = 3\nk = abc", "invalid value"),
        ("n = 2\nl = 3\nv.1 = 1.0", "dimension"),
        ("n = 2\nl = 3\nv.1,0 = 1\nv.1,0 = 1", "duplicate potential"),
        ("n = 2\nl = 3\nv.a,b = 1", "malformed frequency"),
        ("n = 2\nl = 3\nbogus", "expected 'key = value'"),
        ("n = 2\nl = 3\n= 1", "line 3: empty key"),
        ("l = 3\nn =", "line 2: empty value for key 'n'"),
        ("n = 2\nl = 3\nv.1,0 = abc", "line 3: invalid coefficient value"),
        ("l = 3", "missing required key"),
        ("n = 2\nl = 3\nbackend = magic", "backend"),
        ("n = 2\nl = 3\nbackend = diag", "line 3: unknown key 'backend'"),
        ("n = 2\nl = 3\nsolver = magic", "line 3: unknown key 'solver'"),
        ("n = 2\nl = 3\nt = 0.1", "components"),
        ("n = 2\nl = 3\nsamples = 0", "line 3: samples must be >= 1"),
        ("n = 2\nl = 3\nsamples = -3", "line 3: samples must be >= 1"),
        ("n = 2\nl = 3\nk = nan", "line 3: non-finite"),
        ("n = 2\nl = 3\nk = inf", "line 3: non-finite"),
        ("n = 2\nl = 3\nlambda = nan", "line 3: non-finite"),
        ("n = 2\nl = 3\nlambda = -inf", "line 3: non-finite"),
        ("n = 2\nl = 3\nt = 0.1,nan", "line 3: non-finite"),
        ("n = 2\nl = 3\nA = 1+nanj", "line 3: non-finite"),
        ("n = 2\nl = 3\nv.1,0 = inf", "line 3: non-finite"),
        ("n = 2\nl = 3\nstep = 0.01", "unknown key 'step'"),
        ("n = 2\nl = 3\ndirection = 1,0", "unknown key 'direction'"),
        ("n = 2\nl = 3\ntol_tail = 1e-9", "unknown key 'tol_tail'"),
        ("n = 2\nl = 3\nseed = -1", "seed must be >= 0"),
        ("n = 2\nl = 3\ntol_root = 0", "tol_root must be finite and > 0"),
        # numerical controls that are module constants or follow from the
        # data, not settings
        ("n = 2\nl = 3\nM_lin = -3", "line 3: unknown key 'M_lin'"),
        ("n = 2\nl = 3\nM_W = -1", "line 3: unknown key 'M_W'"),
        ("n = 2\nl = 3\nm_max = 0", "line 3: unknown key 'm_max'"),
        ("n = 2\nl = 3\ntol_fp = -1.0", "line 3: unknown key 'tol_fp'"),
        ("n = 2\nl = 3\nN_q = 64", "line 3: unknown key 'N_q'"),
        ("n = 2\nl = 3\nk0 = 2.0", "line 3: unknown key 'k0'"),
    ],
)
def test_parse_rejects_with_location(body, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert fragment in str(err.value)


def test_every_context_and_run_field_has_a_parser():
    # a field missing from the table would be refused as an unknown key, or,
    # with a key but no field, fail to reach RunConfig
    model = {f.name for f in dataclasses.fields(ModelContext)} - {"V"}
    run = {f.name for f in dataclasses.fields(config.RunConfig)} - {"ctx"}
    assert {config._RUN_FIELDS.get(key, key) for key in config._PARSERS} == model | run


def test_parse_model_overrides():
    cfg = parse_config(MODEL_L3 + "\nr_max = 4\nseed = 7\ndelta = 0.1\n")
    assert cfg.ctx.r_max == 4
    assert cfg.ctx.seed == 7
    assert cfg.ctx.delta == 0.1


# -- commands ---------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def read_artifact(path):
    """A JSON artifact, parsed strictly: ``NaN`` and ``Infinity`` are refused."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def test_linear_eig_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "out"
    assert run_cli("linear-eig", "--config", cfg, "--out", str(out)) == 0

    pair = read_artifact(out / "eigenpair.json")
    assert pair["backend"] == "series"
    assert pair["tail_certified"] is True
    assert abs(pair["lam_gap"]) < 1.0
    assert pair["quad_nodes"] == 2 * QUAD_NODES     # the accepted ring

    assert len(pair["column"]) > 10
    assert all(len(key.split(",")) == 2 and len(c) == 2 for key, c in pair["column"].items())

    manifest = read_artifact(out / "manifest.json")
    assert manifest["command"] == "linear-eig"
    assert set(manifest["outputs"]) == {"eigenpair.json"}
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_backend_override_switches_solver(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "diag"
    assert run_cli("linear-eig", "--config", cfg, "--out", str(out), "--backend", "diag") == 0
    assert read_artifact(out / "eigenpair.json")["backend"] == "diag"


@pytest.mark.parametrize("command", ["nonres-scan", "isoenergetic", "verify"])
def test_backend_flag_is_a_usage_error_where_no_band_is_solved(tmp_path, capsys, command):
    cfg = write_config(tmp_path, MODEL_L3)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(command, "--config", cfg, "--out", str(out), "--backend", "diag")
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "unrecognized arguments: --backend diag" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_nonres_scan_counts_and_seed_override(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\nk = 6.0\nsamples = 24\n")
    out_a = tmp_path / "a"
    assert run_cli("nonres-scan", "--config", cfg, "--out", str(out_a)) == 0
    scan = read_artifact(out_a / "scan.json")
    total = (
        scan["admitted"]
        + scan["failed_separation"]
        + scan["failed_slack"]
        + scan["failed_pair"]
    )
    assert total == 24
    assert scan["gamma2"] == pytest.approx(4.25)
    assert len((out_a / "draws.csv").read_text().splitlines()) == 25

    # the seed is set by the config alone: there is no --seed flag
    with pytest.raises(SystemExit) as exit_info:
        run_cli("nonres-scan", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "9")
    assert exit_info.value.code == 2


def test_fixed_point_and_verify_round_trip(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    for backend in ("series", "diag"):
        out = tmp_path / f"fp-{backend}"
        assert run_cli("fixed-point", "--config", cfg, "--out", str(out), "--backend", backend) == 0

        sol = read_artifact(out / "solution.json")
        assert "converged" not in sol
        assert sol["backend"] == backend
        # the band block holds what only the band solve knows: the anchor is
        # the top level's, and the column is psi / A
        assert set(sol["eigenpair"]) == {
            "lam_gap", "rho", "e_jj", "g_terms", "G_norms", "tail_bound",
            "tail_bound_column", "tail_certified", "quad_err", "quad_nodes",
        }
        assert sol["residual"] < 1e-8
        statuses = (
            sol["contraction"]["ratio_status"]
            + sol["contraction"]["drift_status"]
            + sol["contraction"]["col_status"]
        )
        assert statuses and "violated" not in statuses
        trace_lines = (out / "trace.csv").read_text().splitlines()
        assert trace_lines[0].startswith("m,")
        assert len(trace_lines) == sol["steps"] + 1

        vcfg = write_config(
            tmp_path,
            MODEL_L3_NL + "\nsolution = " + str(out / "solution.json"),
            f"verify-{backend}.cfg",
        )
        vout = tmp_path / f"verify-{backend}"
        assert run_cli("verify", "--config", vcfg, "--out", str(vout)) == 0
        report = read_artifact(vout / "verify.json")
        assert report["residual"] < 1e-8
        assert report["stored_residual"] == sol["residual"]
        assert report["newton_d_lam_gap"] < 1e-9
        assert report["newton_d_psi"] < 1e-9


def test_verify_measures_a_perturbed_coefficient(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "fp"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out)) == 0
    doc = read_artifact(out / "solution.json")
    # move one coefficient off the solution; Newton must pull it back by as much
    kick = 1e-8
    doc["psi"]["1,0"][0] += kick
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(doc))

    vcfg = write_config(tmp_path, MODEL_L3_NL + f"\nsolution = {perturbed}", "verify.cfg")
    vout = tmp_path / "verify"
    assert run_cli("verify", "--config", vcfg, "--out", str(vout)) == 0
    report = read_artifact(vout / "verify.json")
    assert report["residual"] > report["stored_residual"]
    assert report["newton_steps"] >= 1
    assert report["newton_d_psi"] == pytest.approx(kick, rel=1e-3)


def test_verify_forms_one_defect(tmp_path, monkeypatch):
    # the residual and Newton's start read one defect of the stored wave
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "fp"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out)) == 0
    calls = []
    formed = fixedpoint.defect

    def counting(*args, **kwargs):
        calls.append(args)
        return formed(*args, **kwargs)

    for module in (cli, fixedpoint, galerkin):
        monkeypatch.setattr(module, "defect", counting)
    vcfg = write_config(tmp_path, MODEL_L3_NL + f"\nsolution = {out / 'solution.json'}", "v.cfg")
    assert run_cli("verify", "--config", vcfg, "--out", str(tmp_path / "verify")) == 0
    assert read_artifact(tmp_path / "verify" / "verify.json")["newton_steps"] == 0
    assert len(calls) == 1


def test_verify_derives_the_anchor_from_t_and_j(tmp_path):
    # k, center and lam follow from t and j: edited or absent, they change nothing
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "fp"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out)) == 0
    doc = read_artifact(out / "solution.json")
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({**doc, "k": 0.0, "center": 1.0, "lam": -5.0}))
    bare = tmp_path / "bare.json"
    for key in ("k", "center", "lam"):
        del doc[key]
    bare.write_text(json.dumps(doc))

    reports = []
    for name, path in [("stored", out / "solution.json"), ("edited", edited), ("bare", bare)]:
        vcfg = write_config(tmp_path, MODEL_L3_NL + f"\nsolution = {path}", f"{name}.cfg")
        assert run_cli("verify", "--config", vcfg, "--out", str(tmp_path / name)) == 0
        reports.append((tmp_path / name / "verify.json").read_bytes())
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_verify_reads_only_the_wave(tmp_path):
    # t, j, psi and lam_gap are all verify needs; a stored residual is only echoed
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "fp"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out)) == 0
    doc = read_artifact(out / "solution.json")
    wave = {key: doc[key] for key in ("t", "j", "psi", "lam_gap")}
    files = {
        "stored": out / "solution.json",
        "wave": tmp_path / "wave.json",
        "wave_residual": tmp_path / "wave_residual.json",
    }
    files["wave"].write_text(json.dumps(wave))
    files["wave_residual"].write_text(json.dumps({**wave, "residual": doc["residual"]}))

    reports = {}
    for name, path in files.items():
        vcfg = write_config(tmp_path, MODEL_L3_NL + f"\nsolution = {path}", f"{name}.cfg")
        assert run_cli("verify", "--config", vcfg, "--out", str(tmp_path / name)) == 0
        reports[name] = (tmp_path / name / "verify.json").read_bytes()
    assert reports["wave_residual"] == reports["stored"]
    report = read_artifact(tmp_path / "stored" / "verify.json")
    assert read_artifact(tmp_path / "wave" / "verify.json") == {**report, "stored_residual": None}


@pytest.mark.parametrize("stored, key", [
    # Newton moves lam_gap = 1e308 to the band in two steps, but the stored
    # wave's residual, 1e308 / |A|, overflows
    ({"lam_gap": 1e308, "psi": {"0,0": [1.0, 0.0]}}, "residual"),
    ({"lam_gap": 0.0, "psi": {"0,0": [math.sqrt(1e-3), 0.0]}, "residual": math.inf},
     "stored_residual"),
], ids=["overflowing-residual", "infinite-stored-residual"])
@pytest.mark.filterwarnings("error::RuntimeWarning")     # Newton's size must not overflow
def test_verify_writes_a_non_finite_number_as_null(tmp_path, stored, key):
    path = tmp_path / "wave.json"
    path.write_text(json.dumps({"t": list(DESK_T), "j": list(DESK_J), **stored}))
    vcfg = write_config(tmp_path, MODEL_L3_NL + f"\nsolution = {path}")
    assert run_cli("verify", "--config", vcfg, "--out", str(tmp_path / "verify")) == 0
    assert read_artifact(tmp_path / "verify" / "verify.json")[key] is None


def test_diag_solution_verifies(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "fp"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out), "--backend", "diag") == 0
    vcfg = write_config(
        tmp_path,
        MODEL_L3_NL + "\nsolution = " + str(out / "solution.json"),
        "verify.cfg",
    )
    vout = tmp_path / "verify"
    assert run_cli("verify", "--config", vcfg, "--out", str(vout)) == 0
    report = read_artifact(vout / "verify.json")
    assert report["newton_d_lam_gap"] < 1e-9
    assert report["newton_d_psi"] < 1e-9


def test_zero_amplitude_verifies_and_has_no_fixed_point(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "fp"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out)) == 0
    # with A = 0 the residual is measured unscaled, as Newton measures it
    zero = MODEL_L3 + "\nsigma = 1.0\nA = 0.0\n"
    vcfg = write_config(tmp_path, zero + f"solution = {out / 'solution.json'}", "verify.cfg")
    vout = tmp_path / "verify"
    assert run_cli("verify", "--config", vcfg, "--out", str(vout)) == 0
    report = read_artifact(vout / "verify.json")
    assert 0.0 < report["residual"] < 1e-8
    # the zero wave is no solution: a typed exit, not a traceback
    zcfg = write_config(tmp_path, zero + "\n".join(desk_lines()), "zero.cfg")
    assert run_cli("fixed-point", "--config", zcfg, "--out", str(tmp_path / "fp0")) == 3


def test_diag_runs_are_bytewise_repeatable(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    for command in ("linear-eig", "fixed-point"):
        outs = [tmp_path / f"{command}-{run}" for run in range(2)]
        for out in outs:
            assert run_cli(command, "--config", cfg, "--out", str(out), "--backend", "diag") == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_solution_json_round_trip_is_exact(tmp_path):
    from polywave.fixedpoint import iterate
    from polywave.lattice import from_json_dict, star_norm

    cfg = parse_config(MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    sol, _ = iterate(cfg.ctx, cfg.t, cfg.j)

    out = tmp_path / "fp"
    path = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    assert run_cli("fixed-point", "--config", path, "--out", str(out)) == 0
    doc = read_artifact(out / "solution.json")

    assert float(doc["lam"]) == sol.lam
    assert float(doc["lam_gap"]) == sol.lam_gap
    assert star_norm(from_json_dict(doc["psi"], n=2) - sol.psi) == 0.0


def test_fixed_point_budget_exhaustion_exits_4(tmp_path, monkeypatch):
    monkeypatch.setattr(fixedpoint, "M_MAX", 1)
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "out"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out)) == 4
    # the partial trace is still on disk for diagnosis
    assert (out / "trace.csv").exists()


def test_resonant_point_exits_3(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\nt = 0.0,0.0\nj = 5,0\n")
    assert run_cli("linear-eig", "--config", cfg, "--out", str(tmp_path / "out")) == 3


# An admitted n = 3, l = 3, k = 10 point.  The default oracle window there,
# radius ceil(2k) = 20, would hold 41^3 sites; ||V||_* = 6 sits far below
# rho ~ 891, so the oracle clips it to the site budget instead.
MODEL_N3 = "\n".join(
    ["n = 3", "l = 3"]
    + [f"v.{q} = 1.0" for q in ("1,0,0", "-1,0,0", "0,1,0", "0,-1,0", "0,0,1", "0,0,-1")]
)
N3_POINT = "\n".join(
    [
        "t = 0.19061364492264854,0.49689265475472233,0.42132525273177723",
        "j = -4,6,-7",
    ]
)


def test_three_dimensional_cross_check(tmp_path):
    cfg = write_config(tmp_path, MODEL_N3 + "\n" + N3_POINT)
    gaps = {}
    for backend in ("series", "diag"):
        out = tmp_path / f"eig-{backend}"
        assert run_cli("linear-eig", "--config", cfg, "--out", str(out), "--backend", backend) == 0
        gaps[backend] = read_artifact(out / "eigenpair.json")["lam_gap"]
    assert gaps["diag"] == pytest.approx(gaps["series"], rel=1e-13, abs=0.0)

    # a resonant momentum is refused by the admission screen, not the window size
    resonant = write_config(tmp_path, MODEL_N3 + "\nt = 0,0,0\nj = 10,0,0", "resonant.cfg")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(
            "linear-eig", "--config", resonant, "--out", str(tmp_path / "r"), "--backend", "diag"
        )
    assert code == 3
    assert "fails admission" in err.getvalue() and "Traceback" not in err.getvalue()

    nonlinear = MODEL_N3 + f"\nsigma = 1.0\nA = {math.sqrt(1e-3)!r}"
    cfg = write_config(tmp_path, nonlinear + "\n" + N3_POINT, "fp.cfg")
    out = tmp_path / "fp"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out)) == 0
    vcfg = write_config(
        tmp_path, nonlinear + "\nsolution = " + str(out / "solution.json"), "verify.cfg"
    )
    assert run_cli("verify", "--config", vcfg, "--out", str(tmp_path / "verify")) == 0


def _raise(error):
    def fail(*args, **kwargs):
        raise error

    return fail


# The l1_k8 desk point: ||V||_* = 4 exceeds rho ~ 0.6, so no Weyl bound
# isolates the band and the oracle asks ARPACK for a second eigenvalue.
MODEL_L1_DESK = "\n".join(
    ["n = 2", "l = 1", "delta = 0.25"]
    + [f"v.{q} = 1.0" for q in ("1,0", "-1,0", "0,1", "0,-1")]
    + ["t = 0.13312643051231188,0.8063802563286901", "j = 7,2"]
)


@pytest.mark.parametrize(
    "module, name, replacement, body, code",
    [
        pytest.param(
            scipy.sparse.linalg, "splu", _raise(RuntimeError("Factor is exactly singular")),
            MODEL_L3 + "\n" + "\n".join(desk_lines()), 3, id="splu-error0-3",
        ),
        pytest.param(
            scipy.sparse.linalg, "eigsh",
            _raise(scipy.sparse.linalg.ArpackNoConvergence("No convergence", [], [])),
            MODEL_L1_DESK, 4, id="eigsh-error1-4",
        ),
        # any other ARPACK failure, such as -9999 "Could not build an Arnoldi
        # factorization", is a numerical failure
        pytest.param(
            scipy.sparse.linalg, "eigsh", _raise(scipy.sparse.linalg.ArpackError(-9999)),
            MODEL_L1_DESK, 3, id="eigsh-arpack_error-3",
        ),
    ],
)
def test_oracle_failures_exit_with_typed_codes(
    tmp_path, monkeypatch, module, name, replacement, body, code
):
    monkeypatch.setattr(module, name, replacement)
    cfg = write_config(tmp_path, body)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code_seen = run_cli(
            "linear-eig", "--config", cfg, "--out", str(tmp_path / "o"), "--backend", "diag"
        )
    assert code_seen == code
    assert "Traceback" not in err.getvalue()


def _plane_wave_solution(tmp_path, lam_gap=0.0, psi=None):
    """A stored solution at the l3 desk momentum: the plane wave by default."""
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({
        "t": list(DESK_T), "j": list(DESK_J), "lam_gap": lam_gap, "w_mean": 0.0,
        "sigma_abs2": 0.0, "steps": 1, "converged": True, "certified": False,
        "backend": "series", "psi": psi or {"0,0": [math.sqrt(1e-3), 0.0]},
    }))
    return path


def _newton_rank_deficiency(tmp_path, monkeypatch):
    # With no potential and sigma = 0 the Jacobian column of the coefficient
    # at offset (1, 0) is mu_{j+(1,0)} - mu_j - lam_gap, exactly 0 here.
    free = parse_config("n = 2\nl = 3").ctx
    gap = float(energy_gaps(free, DESK_T, DESK_J, np.array([[1, 0]]))[0])
    path = _plane_wave_solution(tmp_path, gap, {"0,0": [1.0, 0.0], "1,0": [1.0, 0.0]})
    return "verify", f"n = 2\nl = 3\nsolution = {path}", ()


def _newton_line_search(tmp_path, monkeypatch):
    # at a zero tolerance Newton steps on from its exact solve, where no
    # trial point lowers |F| strictly
    monkeypatch.setattr(galerkin, "NEWTON_TOL", 0.0)
    return "verify", MODEL_L3_NL + f"\nsolution = {_plane_wave_solution(tmp_path)}", ()


def _extreme_wave(lam_gap, others):
    """The anchor coefficient 1 and a 1 at each of ``others``: the moduli of
    the defect sum past the largest float, so its size is inf, and Newton's
    Jacobian, not an overflow in that sum, ends the run."""
    def setup(tmp_path, monkeypatch):
        psi = {"0,0": [1.0, 0.0], **{q: [1.0, 0.0] for q in others}}
        path = _plane_wave_solution(tmp_path, lam_gap, psi)
        return "verify", MODEL_L3_NL + f"\nsolution = {path}", ()
    return setup


def _oracle_without_eigenvalue(tmp_path, monkeypatch):
    # At the l1_k8 desk momentum a cosine potential of amplitude 3 pushes the
    # band out of the spectral window (c - rho, c + rho), rho = k^-0.25.
    V = "\n".join(f"v.{q} = 3.0" for q in ("1,0", "-1,0", "0,1", "0,-1"))
    body = "n = 2\nl = 1\ndelta = 0.25\n" + V + (
        "\nt = 0.13312643051231188,0.8063802563286901\nj = 7,2"
    )
    return "linear-eig", body, ("--backend", "diag")


def _projector_diagonal_escape(tmp_path, monkeypatch):
    solve = fixedpoint._series_eigenpair

    def flipped(*args):
        pair = solve(*args)
        return dataclasses.replace(pair, proj_column=pair.proj_column.scale(-1.0))

    monkeypatch.setattr(fixedpoint, "_series_eigenpair", flipped)
    return "fixed-point", MODEL_L3_NL + "\n" + "\n".join(desk_lines()), ()


@pytest.mark.parametrize(
    "setup, fragment",
    [
        (_newton_rank_deficiency, "Jacobian rank"),
        (_newton_line_search, "line search found no descent"),
        (_extreme_wave(1e308, ("1,0",)), "Jacobian rank"),
        (_extreme_wave(-1e308, ("1,0",)), "Jacobian rank"),
        (_extreme_wave(1e308, ("1,0", "0,1")), "Jacobian rank"),
        (_extreme_wave(-1e308, ("1,0", "0,1")), "Jacobian rank"),
        (_oracle_without_eigenvalue, "no eigenvalue inside"),
        (_projector_diagonal_escape, "projector diagonal"),
    ],
    ids=["newton-rank", "newton-line-search", "extreme-wave-2", "extreme-wave-2-negative",
         "extreme-wave-3", "extreme-wave-3-negative", "oracle-no-eigenvalue",
         "fixed-point-e_jj"],
)
def test_numerical_failures_exit_3(tmp_path, monkeypatch, setup, fragment):
    command, body, flags = setup(tmp_path, monkeypatch)
    cfg = write_config(tmp_path, body)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(command, "--config", cfg, "--out", str(tmp_path / "out"), *flags)
    assert code == 3
    assert fragment in err.getvalue() and "Traceback" not in err.getvalue()


def test_newton_budget_exhaustion_exits_4(tmp_path, monkeypatch):
    # the plane wave is no solution at this coupling, so Newton needs a step
    monkeypatch.setattr(galerkin, "NEWTON_MAX_STEPS", 0)
    body = MODEL_L3_NL + f"\nsolution = {_plane_wave_solution(tmp_path)}"
    cfg = write_config(tmp_path, body)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli("verify", "--config", cfg, "--out", str(tmp_path / "out"))
    assert code == 4
    assert "after 0 steps" in err.getvalue() and "Traceback" not in err.getvalue()


def test_config_errors_exit_2(tmp_path):
    desk = "\n" + "\n".join(desk_lines())
    not_json = tmp_path / "not.json"
    not_json.write_text("{ psi: oops")
    no_psi = tmp_path / "no_psi.json"
    no_psi.write_text(json.dumps({"t": list(DESK_T), "j": list(DESK_J)}))
    good = {
        "t": list(DESK_T), "j": list(DESK_J), "lam_gap": 0.0, "w_mean": 0.0, "sigma_abs2": 0.0,
        "steps": 1, "converged": True, "certified": True, "backend": "series",
    }
    text_psi = tmp_path / "text_psi.json"
    text_psi.write_text(json.dumps({**good, "psi": {"0,0": ["a", "b"]}}))
    flat_psi = tmp_path / "flat_psi.json"
    flat_psi.write_text(json.dumps({**good, "psi": {"0": [1.0, 0.0]}}))
    huge_j = tmp_path / "huge_j.json"
    huge_j.write_text(json.dumps({**good, "j": [1e80, 0], "psi": {"0,0": [0.03, 0.0]}}))
    t_3d = tmp_path / "t_3d.json"
    t_3d.write_text(json.dumps({**good, "t": [0.1, 0.2, 0.3], "psi": {"0,0": [0.03, 0.0]}}))
    infinite_j = tmp_path / "infinite_j.json"
    infinite_j.write_text(json.dumps({**good, "j": [math.inf, 0], "psi": {"0,0": [0.03, 0.0]}}))
    huge_gap = tmp_path / "huge_gap.json"
    huge_gap.write_text(json.dumps({**good, "lam_gap": 10**400, "psi": {"0,0": [0.03, 0.0]}}))
    empty_psi = tmp_path / "empty_psi.json"
    empty_psi.write_text(json.dumps({**good, "psi": {}}))
    no_anchor = tmp_path / "no_anchor.json"
    no_anchor.write_text(json.dumps({**good, "psi": {"1,0": [1e-3, 0.0]}}))
    # waves verify cannot check: each would end in a traceback or a misread
    unusable = {
        "nan_gap": {**good, "lam_gap": math.nan, "psi": {"0,0": [0.03, 0.0]}},
        "inf_gap": {**good, "lam_gap": math.inf, "psi": {"0,0": [0.03, 0.0]}},
        "minus_inf_gap": {**good, "lam_gap": -math.inf, "psi": {"0,0": [0.03, 0.0]}},
        "nan_psi": {**good, "psi": {"0,0": [0.03, 0.0], "1,0": [math.nan, 0.0]}},
        "inf_psi": {**good, "psi": {"0,0": [0.03, 0.0], "1,0": [0.0, math.inf]}},
        "minus_inf_psi": {**good, "psi": {"0,0": [0.03, 0.0], "1,0": [-math.inf, 0.0]}},
        "t_outside": {**good, "t": [1.5, DESK_T[1]], "psi": {"0,0": [0.03, 0.0]}},
        "t_negative": {**good, "t": [-0.25, DESK_T[1]], "psi": {"0,0": [0.03, 0.0]}},
        "twice_spelt": {
            **good, "psi": {"0,0": [0.03, 0.0], "1,0": [1e-9, 0.0], "01,0": [2e-9, 0.0]}
        },
    }
    for name, doc in unusable.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps({**good, "psi": {"0,0": [0.03, 0.0]}})[:-1]
                        + ', "lam_gap": 1.0}')
    huge = "\nt = 0.5,0.5\nj = 1" + "0" * 80 + ",0"
    rows = [
        ("linear-eig", "n = 2\nl = 3\nwild = 1"),
        ("linear-eig", MODEL_L3),
        ("nonres-scan", MODEL_L3 + "\nk = 6.0\nsamples = 0"),
        ("isoenergetic", MODEL_L3 + "\nlambda = nan\nsamples = 2"),
        # the surface has one gap evaluation, not a config key
        ("isoenergetic", MODEL_L3 + "\nlambda = 262144.0\nsamples = 2\nsolver = fixedpoint"),
        # malformed stored solutions
        ("verify", MODEL_L3_NL + f"\nsolution = {not_json}"),
        ("verify", MODEL_L3_NL + f"\nsolution = {no_psi}"),
        ("verify", MODEL_L3_NL + f"\nsolution = {text_psi}"),
        ("verify", MODEL_L3_NL + f"\nsolution = {flat_psi}"),
        ("verify", MODEL_L3_NL + f"\nsolution = {t_3d}"),
        ("verify", MODEL_L3_NL + f"\nsolution = {infinite_j}"),
        ("verify", MODEL_L3_NL + f"\nsolution = {huge_gap}"),
        ("verify", MODEL_L3_NL + f"\nsolution = {empty_psi}"),
        ("verify", MODEL_L3_NL + f"\nsolution = {no_anchor}"),
        *(("verify", MODEL_L3_NL + f"\nsolution = {tmp_path / name}.json")
          for name in unusable),
        ("verify", MODEL_L3_NL + f"\nsolution = {repeated}"),
        # unreadable stored solutions
        ("verify", MODEL_L3_NL + f"\nsolution = {tmp_path / 'missing.json'}"),
        ("verify", MODEL_L3_NL + f"\nsolution = {tmp_path}"),
        # negative model controls
        ("nonres-scan", MODEL_L3 + "\nk = 6.0\nsamples = 2\nseed = -1"),
        # numerical controls that are module constants or follow from the
        # data, not config keys
        ("linear-eig", MODEL_L3 + desk + "\nM_lin = -3", "--backend", "diag"),
        ("linear-eig", MODEL_L3 + desk + "\nM_lin = 0", "--backend", "diag"),
        ("fixed-point", MODEL_L3_NL + desk + "\nM_W = -1"),
        ("fixed-point", MODEL_L3_NL + desk + "\ntol_fp = -1.0"),
        ("fixed-point", MODEL_L3_NL + desk + "\nm_max = 0"),
        ("fixed-point", MODEL_L3_NL + desk + "\nm_max = -3"),
        # a root tolerance that cannot be met
        ("isoenergetic", MODEL_L3 + "\nlambda = 262144.0\nsamples = 4\ntol_root = -1.0"),
        ("isoenergetic", MODEL_L3 + "\nlambda = 262144.0\nsamples = 4\ntol_root = 0"),
        # admission boxes too large to build
        ("nonres-scan", MODEL_L3 + "\nk = 1e7\nsamples = 1"),
        ("nonres-scan", MODEL_L3 + "\nk = 1e300\nsamples = 1"),
        ("isoenergetic", MODEL_L3 + "\nlambda = 1e300\nsamples = 1"),
        ("linear-eig", MODEL_L3 + "\nt = 0.5,0.5\nj = 100000000,0"),
        # t outside [0, 1)^n, which the window oracle would otherwise solve
        ("linear-eig", MODEL_L3 + "\nt = -0.5,0.0\nj = 3,7", "--backend", "diag"),
        # momenta whose k^{2l} overflows
        ("linear-eig", MODEL_L3 + huge),
        ("linear-eig", MODEL_L3 + huge, "--backend", "diag"),
        ("fixed-point", MODEL_L3_NL + huge),
        ("verify", MODEL_L3_NL + f"\nsolution = {huge_j}"),
        # zero momentum, where the l = 1 contour radius k^(-delta) is undefined
        ("linear-eig", "n = 2\nl = 1\ndelta = 0.25\nv.1,0 = 1.0\nv.-1,0 = 1.0"
                       "\nt = 0.0,0.0\nj = 0,0"),
        # more dimensions than numpy's grid functions take
        ("nonres-scan", "n = 33\nl = 9\nk = 6.0\nsamples = 1"),
        # a potential whose star norm overflows
        ("linear-eig", "n = 2\nl = 3\nv.1,0 = 1e308\nv.-1,0 = 1e308" + desk),
        # finite Hermitian coefficients whose moduli overflow
        ("linear-eig", "n = 2\nl = 3\nv.1,0 = 1.3e308+1.3e308j"
                       "\nv.-1,0 = 1.3e308-1.3e308j" + desk),
        # an amplitude whose modulus overflows, which abs() raises on
        ("fixed-point", MODEL_L3 + "\nsigma = 1.0\nA = 1.3e308+1.3e308j" + desk),
    ]
    for idx, (command, body, *flags) in enumerate(rows):
        cfg = write_config(tmp_path, body, f"row{idx}.cfg")
        code = run_cli(command, "--config", cfg, "--out", str(tmp_path / f"o{idx}"), *flags)
        assert code == 2, (command, body, flags)


@pytest.mark.parametrize("command, run", [
    ("nonres-scan", "k = 6.0"),
    ("isoenergetic", "lambda = 262144.0"),
])
@pytest.mark.parametrize("samples", [
    BOX_SITES_MAX // 2 + 1,     # two components a draw: just past the bound
    2 ** 62,                    # numpy: "array is too big"
    10 ** 20,                   # numpy: "Maximum allowed dimension exceeded"
])
def test_oversized_samples_exit_2_before_allocation(tmp_path, command, run, samples):
    cfg = write_config(tmp_path, MODEL_L3 + f"\n{run}\nsamples = {samples}")
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(err):
            code = run_cli(command, "--config", cfg, "--out", str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert str(BOX_SITES_MAX) in err.getvalue() and "Traceback" not in err.getvalue()
    assert peak < 2**20


@pytest.mark.parametrize(
    "config, out",
    [
        ("{tmp}", "{tmp}/out"),                 # the config is a directory
        ("{tmp}/latin1.cfg", "{tmp}/out"),      # the config is not UTF-8
        ("{tmp}/run.cfg", "{tmp}/file"),        # --out is an existing file
        ("{tmp}/run.cfg", "{tmp}/file/out"),    # --out lies under a file
    ],
    ids=["config-is-directory", "config-not-utf8", "out-is-file", "out-under-file"],
)
def test_unreadable_config_or_unwritable_out_exits_2(tmp_path, config, out):
    body = MODEL_L3 + "\n" + "\n".join(desk_lines()) + "\n"
    (tmp_path / "run.cfg").write_text(body)
    (tmp_path / "latin1.cfg").write_bytes(("# caf\u00e9\n" + body).encode("latin-1"))
    (tmp_path / "file").write_text("not a directory\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(
            "linear-eig",
            "--config", config.format(tmp=tmp_path),
            "--out", out.format(tmp=tmp_path),
        )
    assert code == 2
    assert "configuration error" in err.getvalue() and "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", ["fixed-point", "isoenergetic", "verify"])
def test_amplitude_whose_square_overflows_exits_2(tmp_path, command):
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({
        "t": list(DESK_T), "j": list(DESK_J), "lam_gap": 0.0, "w_mean": 0.0, "sigma_abs2": 0.0,
        "steps": 1, "converged": True, "certified": True, "backend": "series",
        "psi": {"0,0": [1e200, 0.0]},
    }))
    run = {
        "fixed-point": "\n".join(desk_lines()),
        "isoenergetic": "lambda = 262144.0\nsamples = 2",
        "verify": f"solution = {solution}",
    }[command]
    cfg = write_config(tmp_path, MODEL_L3 + "\nsigma = 1.0\nA = 1e200\n" + run)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run_cli(command, "--config", cfg, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "|A|^2" in err.getvalue() and "Traceback" not in err.getvalue()


def test_isoenergetic_surface_accounting(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\nlambda = 262144.0\nsamples = 2\n")
    out = tmp_path / "iso"
    assert run_cli("isoenergetic", "--config", cfg, "--out", str(out)) == 0
    surface = read_artifact(out / "surface.json")
    assert surface["requested"] == 2
    # both seeded directions have punctured base momenta: holes, not failures
    assert surface["holes"] == 2 and surface["failures"] == 0
    assert surface["resolved"] == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",")[-1] == "error"
    rows = [line.split(",") for line in lines[1:]]
    assert [(row[1], row[-1]) for row in rows] == [("hole", "ResonanceError")] * 2


# -- config fuzzing ---------------------------------------------------

# A valid base run for every command, then up to three overrides, so that
# draws reach the solvers as well as the parser; each draw also picks the
# --backend flag, which the band commands take, so draws reach the oracle as
# well as the series.
_FUZZ_BASE = {
    "sigma": "1.0",
    "A": repr(math.sqrt(1e-3)),
    "t": f"{DESK_T[0]!r},{DESK_T[1]!r}",
    "j": f"{DESK_J[0]},{DESK_J[1]}",
    "k": "6.0",
    "lambda": "262144.0",
    "samples": "2",
}
_FUZZ_VALUES = {
    "sigma": ["0", "-2", "1e300"],
    "A": ["1", "1e10", "1+1j"],
    "delta": ["0", "0.5", "0.1"],
    "seed": ["-1", "0", "7"],
    "r_max": ["1", "4"],
    "tol_root": ["-1.0", "0", "inf", "1e-3"],
    "k": ["-1", "1e7", "1e300", "abc", "20"],
    "lambda": ["1e300", "-5", "0", "1e9"],
    "samples": ["0", "-3", "1"],
    "t": ["0.5", "0.0,0.0", "1.5,0.2", "0.5,0.5"],
    "j": ["100000000,0", "5,0", "1", "0,0"],
}
_POTENTIALS = [
    "v.1,0 = 1.0\nv.-1,0 = 1.0\nv.0,1 = 1.0\nv.0,-1 = 1.0",
    "",
    "v.1,0 = 1j\nv.-1,0 = 1j",
    "v.0,0 = 1",
    "v.1 = 1",
]
_SOLUTIONS = {
    "not-json": "{ psi: oops",
    "no-psi": json.dumps({"t": list(DESK_T), "j": list(DESK_J)}),
    "bad-psi": json.dumps({"psi": {"0,0": [None, 1.0]}, "t": list(DESK_T), "j": list(DESK_J)}),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in _SOLUTIONS.items():
        (root / f"{name}.json").write_text(text)
    cfg = write_config(root, MODEL_L3_NL + "\n" + "\n".join(desk_lines()), "valid.cfg")
    assert main(["fixed-point", "--config", cfg, "--out", str(root / "valid")]) == 0
    (root / "valid.json").write_text((root / "valid" / "solution.json").read_text())
    return root


_COMMANDS = ["linear-eig", "nonres-scan", "fixed-point", "isoenergetic", "verify"]


@given(
    command=st.sampled_from(_COMMANDS),
    n=st.sampled_from(["2"] * 6 + ["1", "3", "0", "x"]),
    l=st.sampled_from(["3"] * 6 + ["1", "0"]),
    potential=st.sampled_from(_POTENTIALS[:1] * 6 + _POTENTIALS[1:]),
    overrides=st.dictionaries(
        st.sampled_from(sorted(_FUZZ_VALUES)), st.integers(0, 4), max_size=3
    ),
    solution=st.sampled_from(["valid", "valid", *sorted(_SOLUTIONS)]),
    backend=st.sampled_from(["diag", "series", "series"]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_config_fuzz_exits_with_documented_code(
    fuzz_dir, command, n, l, potential, overrides, solution, backend
):
    values = dict(_FUZZ_BASE)
    for key, pick in overrides.items():
        values[key] = _FUZZ_VALUES[key][pick % len(_FUZZ_VALUES[key])]
    lines = [f"n = {n}", f"l = {l}", potential]
    lines += [f"{key} = {value}" for key, value in values.items()]
    lines.append(f"solution = {fuzz_dir / (solution + '.json')}")
    cfg = fuzz_dir / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    flags = ["--backend", backend] if command in ("linear-eig", "fixed-point") else []
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([
            command, "--config", str(cfg), "--out", tempfile.mkdtemp(dir=fuzz_dir), *flags,
        ])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
