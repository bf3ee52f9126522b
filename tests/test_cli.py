"""Run configuration parsing and the command-line entry points."""

import hashlib
import json
import math

import pytest

from polywave.cli import main
from polywave.config import parse_config
from polywave.errors import ConfigError

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
    assert cfg.backend == "series" and cfg.solver == "series"
    assert cfg.sweep is False


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
        ("l = 3", "missing required key"),
        ("n = 2\nl = 3\nbackend = magic", "backend"),
        ("n = 2\nl = 3\nsolver = magic", "solver"),
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
    ],
)
def test_parse_rejects_with_location(body, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(body)
    assert fragment in str(err.value)


def test_parse_model_overrides():
    cfg = parse_config(MODEL_L3 + "\nr_max = 4\nN_q = 32\nseed = 7\ndelta = 0.1\n")
    assert cfg.ctx.r_max == 4
    assert cfg.ctx.N_q == 32
    assert cfg.ctx.seed == 7
    assert cfg.ctx.delta == 0.1


# -- commands ---------------------------------------------------------

def run_cli(*argv):
    return main(list(argv))


def test_linear_eig_writes_artifacts(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "out"
    assert run_cli("linear-eig", "--config", cfg, "--out", str(out)) == 0

    pair = json.loads((out / "eigenpair.json").read_text())
    assert pair["backend"] == "series"
    assert pair["tail_certified"] is True
    assert abs(pair["lam_gap"]) < 1.0

    lines = (out / "column.csv").read_text().splitlines()
    assert lines[0] == "d1,d2,re,im"
    assert len(lines) > 10

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "linear-eig"
    assert set(manifest["outputs"]) == {"eigenpair.json", "column.csv"}
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_backend_override_switches_solver(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "diag"
    assert run_cli("linear-eig", "--config", cfg, "--out", str(out), "--backend", "diag") == 0
    assert json.loads((out / "eigenpair.json").read_text())["backend"] == "diag"


def test_nonres_scan_counts_and_seed_override(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\nk = 6.0\nsamples = 24\n")
    out_a = tmp_path / "a"
    assert run_cli("nonres-scan", "--config", cfg, "--out", str(out_a)) == 0
    scan = json.loads((out_a / "scan.json").read_text())
    total = (
        scan["admitted"]
        + scan["failed_separation"]
        + scan["failed_slack"]
        + scan["failed_pair"]
    )
    assert total == 24
    assert scan["gamma2"] == pytest.approx(4.25)
    assert len((out_a / "draws.csv").read_text().splitlines()) == 25

    # --seed must behave exactly like a seed line in the config
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    cfg9 = write_config(tmp_path, MODEL_L3 + "\nk = 6.0\nsamples = 24\nseed = 9\n", "s9.cfg")
    assert run_cli("nonres-scan", "--config", cfg, "--out", str(out_b), "--seed", "9") == 0
    assert run_cli("nonres-scan", "--config", cfg9, "--out", str(out_c)) == 0
    assert (out_b / "draws.csv").read_bytes() == (out_c / "draws.csv").read_bytes()
    assert (out_b / "scan.json").read_bytes() == (out_c / "scan.json").read_bytes()


def test_fixed_point_and_verify_round_trip(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    out = tmp_path / "fp"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out)) == 0

    sol = json.loads((out / "solution.json").read_text())
    assert sol["converged"] is True
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
        "verify.cfg",
    )
    vout = tmp_path / "verify"
    assert run_cli("verify", "--config", vcfg, "--out", str(vout)) == 0
    report = json.loads((vout / "verify.json").read_text())
    assert report["residual"] < 1e-8
    assert report["stored_residual"] == sol["residual"]
    assert report["newton_d_lam_gap"] < 1e-9
    assert report["newton_d_psi"] < 1e-9


def test_solution_json_round_trip_is_exact(tmp_path):
    from polywave.fixedpoint import iterate
    from polywave.lattice import distance, from_json_dict

    cfg = parse_config(MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    sol, _ = iterate(cfg.ctx, cfg.t, cfg.j)

    out = tmp_path / "fp"
    path = write_config(tmp_path, MODEL_L3_NL + "\n" + "\n".join(desk_lines()))
    assert run_cli("fixed-point", "--config", path, "--out", str(out)) == 0
    doc = json.loads((out / "solution.json").read_text())

    assert float(doc["lam"]) == sol.lam
    assert float(doc["lam_gap"]) == sol.lam_gap
    assert distance(from_json_dict(doc["psi"], n=2), sol.psi) == 0.0


def test_fixed_point_budget_exhaustion_exits_4(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3_NL + "\nm_max = 1\n" + "\n".join(desk_lines()))
    out = tmp_path / "out"
    assert run_cli("fixed-point", "--config", cfg, "--out", str(out)) == 4
    # the partial trace is still on disk for diagnosis
    assert (out / "trace.csv").exists()


def test_resonant_point_exits_3(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\nt = 0.0,0.0\nj = 5,0\n")
    assert run_cli("linear-eig", "--config", cfg, "--out", str(tmp_path / "out")) == 3


def test_config_errors_exit_2(tmp_path):
    bad = write_config(tmp_path, "n = 2\nl = 3\nwild = 1\n")
    assert run_cli("linear-eig", "--config", bad, "--out", str(tmp_path / "o1")) == 2
    missing = write_config(tmp_path, MODEL_L3, "missing.cfg")
    assert run_cli("linear-eig", "--config", missing, "--out", str(tmp_path / "o2")) == 2
    empty = write_config(tmp_path, MODEL_L3 + "\nk = 6.0\nsamples = 0", "empty.cfg")
    assert run_cli("nonres-scan", "--config", empty, "--out", str(tmp_path / "o3")) == 2
    nan = write_config(tmp_path, MODEL_L3 + "\nlambda = nan\nsamples = 2", "nan.cfg")
    assert run_cli("isoenergetic", "--config", nan, "--out", str(tmp_path / "o4")) == 2


def test_isoenergetic_surface_accounting(tmp_path):
    cfg = write_config(tmp_path, MODEL_L3 + "\nlambda = 262144.0\nsamples = 2\n")
    out = tmp_path / "iso"
    assert run_cli("isoenergetic", "--config", cfg, "--out", str(out)) == 0
    surface = json.loads((out / "surface.json").read_text())
    assert surface["requested"] == 2
    # both seeded directions have punctured base momenta: holes, not failures
    assert surface["holes"] == 2 and surface["failures"] == 0
    assert surface["resolved"] == 0
    lines = (out / "surface.csv").read_text().splitlines()
    assert len(lines) == 3
    assert [line.split(",")[1] for line in lines[1:]] == ["hole", "hole"]


def test_thread_pool_env(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, MODEL_L3 + "\nk = 6.0\nsamples = 8\n")
    monkeypatch.setenv("POLYWAVE_THREADS", "2")
    assert run_cli("nonres-scan", "--config", cfg, "--out", str(tmp_path / "ok")) == 0
    monkeypatch.setenv("POLYWAVE_THREADS", "zippy")
    assert run_cli("nonres-scan", "--config", cfg, "--out", str(tmp_path / "bad")) == 2
