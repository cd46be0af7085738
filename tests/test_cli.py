import argparse
import json
import math
import os
import re
import time
import warnings

import numpy as np
import pytest

import ddjump as dj
from ddjump.cli import build_parser, main
from conftest import identity_certificate, watchdog

SIR = """
[dimension]
2
[params]
alpha = 2.0
beta = 1.0
gamma = 1.0
[jumps]
-1  1 : alpha * x1 * x2
 1  0 : beta
 0 -1 : gamma * x2
[domain]
x1 >= 0
x2 >= 0
"""

SEPARATED = """
[dimension]
2
[jumps]
1 0 : 1
0 1 : x1
"""

# -e1 = 5 (11, 0) + 8 (-7, 0) takes 13 jumps, past the default search radius 8
WIDE_JUMPS = """
[dimension]
2
[jumps]
11  0 : 7
-7  0 : 11 * x1
 0  1 : 1
 0 -1 : x2
[domain]
x1 >= 0
x2 >= 0
"""

BAD_RATE_AT_C = """
[dimension]
1
[jumps]
 1 : x1
-1 : 2 * x1
"""


@pytest.fixture()
def sir_cfg(tmp_path):
    p = tmp_path / "sir.cfg"
    p.write_text(SIR)
    return str(p)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def test_validate_pass(sir_cfg, capsys):
    code = main(["validate", "--model", sir_cfg])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["status"] == "PASS"
    assert out["spanning_verdict"] == "spanning"
    ev = sorted(tuple(e) for e in out["eigenvalues"])
    assert ev[0][0] == pytest.approx(-1.0, abs=1e-8)
    assert abs(ev[0][1]) == pytest.approx(1.0, abs=1e-8)
    assert out["rho_hat"] == pytest.approx(1.0, abs=1e-10)


def test_validate_fails_separated(tmp_path, capsys):
    p = tmp_path / "sep.cfg"
    p.write_text(SEPARATED)
    code = main(["validate", "--model", str(p)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["spanning_verdict"] == "separated"
    assert "witness_vector" in out


def test_validate_fails_positivity(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(BAD_RATE_AT_C)
    code = main(["validate", "--model", str(p)])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "certificate_error" in out


# the death jump leaves x1 = 0 at rate 1
LEAKY_FACE = """
[dimension]
1
[jumps]
 1 : 2
-1 : 1 + x1
"""


@pytest.mark.parametrize(
    "text,message",
    [
        (WIDE_JUMPS, "jump (-7, 0) crosses the face x1 >= 0 by 7 lattice steps"),
        (LEAKY_FACE, "jump (-1,) leaves through the face x1 >= 0 at rate 1 at [0.0]"),
    ],
)
def test_validate_fails_a_jump_out_of_the_domain(tmp_path, capsys, text, message):
    p = tmp_path / "m.cfg"
    p.write_text(text)
    code = main(["validate", "--model", str(p), "--search-radius", "16"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["status"] == "FAIL" and out["domain_exits"] == [message]
    assert out["spanning_verdict"] == "spanning" and "certificate_error" not in out


@pytest.mark.parametrize("name", ["hamer_sir.cfg", "birth_death.cfg"])
def test_shipped_models_keep_to_their_domain(capsys, name):
    path = os.path.join(os.path.dirname(__file__), "..", "models", name)
    assert main(["validate", "--model", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "PASS" and out["domain_exits"] == []


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.cfg"
    p.write_text("[dimension]\n2\n[jumps]\n1 0 : q * x1\n")
    code = main(["validate", "--model", str(p)])
    assert code == 1


@pytest.mark.parametrize(
    "rate,message",
    [
        # a column is the rate's place in the config line "1 : <rate>"
        ("x1^1e400", "exponent 1e400 is not an integer in 0..999 in rate for jump (1,) (line 5, col 8)"),
        ("(" * 600 + "x1" + ")" * 600, "too many nested parentheses in rate for jump (1,) (line 5, col 205)"),
        # 200 nested parentheses in the generated kernel
        (
            "+".join(["x1"] * 201),
            "a rate is nested too deeply to compile: too many nested parentheses in rate for jump (1,) (line 5)",
        ),
        ("+".join(["x1"] * 1500), "expression nested too deeply in rate for jump (1,) (line 5)"),
        # written out, about a million factors per kernel form
        ("(x1^999)^999", "nested exponents multiply to 998001, above 999 in rate for jump (1,) (line 5, col 14)"),
    ],
    ids=["huge-exponent", "600-parentheses", "201-terms", "1500-terms", "nested-exponents"],
)
def test_a_rate_past_the_language_limits_is_one_parse_error_line(tmp_path, capsys, rate, message):
    p = tmp_path / "deep.cfg"
    p.write_text(f"[dimension]\n1\n[jumps]\n-1 : x1\n1 : {rate}\n")
    start = time.perf_counter()
    assert main(["validate", "--model", str(p)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: parse error: {message}"]


def test_missing_file_exit_code(tmp_path):
    assert main(["validate", "--model", str(tmp_path / "nope.cfg")]) == 1


def test_analyze_writes_certificate(sir_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["analyze", "--model", sir_cfg, "--out", out])
    assert code == 0
    cert = json.load(open(os.path.join(out, "certificate.json")))
    assert cert["rho"] == pytest.approx(0.5)
    assert len(cert["M"]) == 2


def test_simulate_trajectory_csv(sir_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(
        [
            "simulate",
            "--model",
            sir_cfg,
            "--N",
            "50",
            "--x0",
            "1,1",
            "--horizon",
            "1.0",
            "--seed",
            "5",
            "--out",
            out,
        ]
    )
    assert code == 0
    lines = read(os.path.join(out, "trajectory.csv")).decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "t,X1,X2"
    assert any(ln.startswith("# seed=5") for ln in lines)


def test_cutoff_deterministic_across_workers(sir_cfg, tmp_path):
    args = [
        "cutoff",
        "--model",
        sir_cfg,
        "--N",
        "30",
        "--x0",
        "1,1",
        "--s-grid=-1,1,3",
        "--reps",
        "500",
        "--delta",
        "0.6",
        "--seed",
        "9",
    ]
    out1 = str(tmp_path / "w1")
    out2 = str(tmp_path / "w2")
    assert main(args + ["--workers", "1", "--out", out1]) == 0
    assert main(args + ["--workers", "2", "--out", out2]) == 0
    assert read(os.path.join(out1, "cutoff_N30.csv")) == read(
        os.path.join(out2, "cutoff_N30.csv")
    )
    assert read(os.path.join(out1, "cutoff.json")) == read(os.path.join(out2, "cutoff.json"))


def test_cutoff_zero_reps_is_validation_error(sir_cfg, tmp_path, capsys):
    args = ["cutoff", "--model", sir_cfg, "--N", "30", "--x0", "1,1", "--s-grid", "0"]
    code = main(args + ["--reps", "0", "--delta", "0.6", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "validation error: reps must be >= 1, got 0\n"


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_couple_zero_reps_is_validation_error(sir_cfg, tmp_path, capsys, reps):
    args = ["couple", "--model", sir_cfg, "--N", "30", "--horizon", "1.0", "--k2", "5.0"]
    code = main(args + ["--reps", reps, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"validation error: reps must be >= 1, got {reps}\n"


def test_cutoff_empty_s_grid_is_validation_error(sir_cfg, tmp_path, capsys):
    args = ["cutoff", "--model", sir_cfg, "--N", "30", "--x0", "1,1", "--s-grid=,"]
    code = main(args + ["--reps", "50", "--delta", "0.6", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "validation error: the s-grid is empty\n"


@pytest.mark.parametrize(
    "command,extra",
    [("cutoff", ["--x0", "1,1", "--s-grid", "0,1", "--reps", "10"]), ("equilibrium", []), ("couple", [])],
)
def test_an_N_below_1_is_refused_before_any_ball(sir_cfg, tmp_path, capsys, command, extra):
    args = [command, "--model", sir_cfg, "--N", "0", *extra, "--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 2
    assert capsys.readouterr().err == "validation error: N must be a positive integer\n"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("x0", ["1", "1,1,1"])
@pytest.mark.parametrize("command", ["simulate", "cutoff"])
def test_x0_of_the_wrong_length_is_validation_error(sir_cfg, tmp_path, capsys, command, x0):
    args = [command, "--model", sir_cfg, "--N", "30", "--x0", x0, "--out", str(tmp_path / "out")]
    if command == "cutoff":
        args += ["--s-grid", "0", "--reps", "50", "--delta", "0.6"]
    assert main(args) == 2
    n = len(x0.split(","))
    assert capsys.readouterr().err == f"error: --x0 has {n} entries, model dimension is 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--N", "40", "--x0", "1,1", "--horizon", "inf"],
        ["couple", "--N", "40", "--horizon", "inf", "--record", "0,1", "--k2", "5.0"],
    ],
)
def test_an_infinite_horizon_is_a_validation_error(sir_cfg, tmp_path, capsys, argv):
    # both commands used to run until killed
    with watchdog():
        code = main([*argv, "--model", sir_cfg, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "validation error: horizon must be finite\n"


def test_simulate_rejects_a_second_N(sir_cfg, tmp_path, capsys):
    args = ["simulate", "--model", sir_cfg, "--N", "20,40", "--x0", "1,1", "--horizon", "0.5"]
    code = main(args + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: simulate takes one --N value, got 2\n"
    assert not os.path.exists(tmp_path / "out" / "trajectory.csv")


def test_couple_rejects_a_second_N(sir_cfg, tmp_path, capsys):
    args = ["couple", "--model", sir_cfg, "--N", "40,80", "--horizon", "0.5", "--k2", "5.0"]
    code = main(args + ["--workers", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: couple takes one --N value, got 2\n"
    assert not os.path.exists(tmp_path / "out" / "couple_trace.csv")


@pytest.mark.parametrize("N", ["100", "400"])
def test_couple_h0_is_the_certificate_norm_at_default_start(sir_cfg, tmp_path, N):
    out = str(tmp_path / "out")
    args = ["couple", "--model", sir_cfg, "--N", N, "--horizon", "0.5", "--k2", "5.0"]
    assert main(args + ["--reps", "2", "--workers", "1", "--out", out]) == 0
    lines = read(os.path.join(out, "couple_trace.csv")).decode().splitlines()
    row = [ln for ln in lines if not ln.startswith("#")][1].split(",")
    assert row[0] == "0.0"
    U, V = np.array([int(v) for v in row[1:3]]), np.array([int(v) for v in row[3:5]])
    cert = dj.certify(dj.parse_model(SIR), np.ones(2), rho_fraction=0.5)
    h0 = cert.m_norm(U - V)
    assert row[6] == repr(h0)


def test_cutoff_single_row_grid(sir_cfg, tmp_path):
    out = str(tmp_path / "out")
    code = main(
        [
            "cutoff",
            "--model",
            sir_cfg,
            "--N",
            "30",
            "--x0",
            "1,1",
            "--s-grid",
            "0",
            "--reps",
            "200",
            "--delta",
            "0.6",
            "--seed",
            "1",
            "--workers",
            "1",
            "--out",
            out,
        ]
    )
    assert code == 0
    rows = [
        ln
        for ln in read(os.path.join(out, "cutoff_N30.csv")).decode().splitlines()
        if ln and not ln.startswith("#")
    ]
    assert len(rows) == 2  # header + single profile row
    summary = json.load(open(os.path.join(out, "cutoff.json")))
    assert summary["delta"] == 0.6 and 0.0 < summary["delta0"] < 0.6
    assert summary["certified"] is False


def test_couple_outputs(sir_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(
        [
            "couple",
            "--model",
            sir_cfg,
            "--N",
            "100",
            "--reps",
            "8",
            "--horizon",
            "4.0",
            "--h0",
            "8",
            "--k2",
            "5.0",
            "--seed",
            "3",
            "--workers",
            "1",
            "--out",
            out,
        ]
    )
    assert code == 0
    lines = read(os.path.join(out, "couple_trace.csv")).decode().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "t,U1,U2,V1,V2,phase,H"
    summary = json.load(open(os.path.join(out, "couple.json")))
    assert "coalesced_frac" in summary
    assert summary["K2"] == 5.0 and summary["K2_at_cap"] is False


def test_couple_json_says_when_k2_is_the_cap(sir_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["analyze", "--model", sir_cfg, "--out", out]) == 0
    cert_path = os.path.join(out, "certificate.json")
    cmd = ["couple", "--model", sir_cfg, "--cert", cert_path, "--N", "100", "--reps", "1"]
    assert main(cmd + ["--horizon", "1", "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "couple.json")))
    cap = dj.simulate.K2_CAP_FACTOR * dj.StabilityCertificate.load(cert_path).JstarM
    # the ball B_M(N c, N delta0) at N=100 is too small for a working threshold
    assert summary["K2"] == cap and summary["K2_at_cap"] is True


def test_equilibrium_outputs(sir_cfg, tmp_path):
    out = str(tmp_path / "out")
    code = main(
        [
            "equilibrium",
            "--model",
            sir_cfg,
            "--N",
            "30",
            "--delta",
            "0.6",
            "--seed",
            "2",
            "--out",
            out,
        ]
    )
    assert code == 0
    summary = json.load(open(os.path.join(out, "equilibrium.json")))
    assert summary["N"][0]["pi_method"] == "exact"
    assert summary["N"][0]["bias_floor"] == 0.0
    assert summary["sigma2"] == [[2.0, -1.0], [-1.0, 2.0]]
    assert summary["delta"] == 0.6 and 0.0 < summary["delta0"] < 0.6
    assert summary["certified"] is False


def test_equilibrium_at_the_default_delta_is_certified(sir_cfg, tmp_path):
    out = str(tmp_path / "out")
    assert main(["equilibrium", "--model", sir_cfg, "--N", "2000", "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "equilibrium.json")))
    assert summary["delta"] == summary["delta0"] / 2 and summary["certified"] is True


def test_equilibrium_on_a_ball_with_no_lattice_state_is_a_validation_error(tmp_path, capsys):
    # drift 2.1 - 2 x1: the fixed point 1.05 and Jacobian -2 of the certificate
    cfg, cert_path = tmp_path / "bd.cfg", tmp_path / "cert.json"
    cfg.write_text("[dimension]\n1\n[jumps]\n1 : 2.1\n-1 : 2 * x1\n")
    identity_certificate(d=1, c=(1.05,)).dump(cert_path)
    args = ["--model", str(cfg), "--cert", str(cert_path), "--N", "10", "--delta", "0.04"]
    code = main(["equilibrium", *args, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.strip().endswith("no lattice state inside the restriction ball")


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "--N", "20", "--delta", "0.5"],
        ["cutoff", "--N", "20", "--x0", "1,1", "--s-grid=0,1", "--reps", "10"],
        ["couple", "--N", "50", "--reps", "1", "--horizon", "1"],
        ["simulate", "--N", "20", "--x0", "1,1", "--delta", "0.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_certificate_of_another_dimension_is_a_validation_error(sir_cfg, tmp_path, capsys, argv):
    # these used to fail inside numpy, or as a parse error, or with a traceback
    cert_path = str(tmp_path / "cert.json")
    identity_certificate(d=1, c=(1.0,)).dump(cert_path)
    code = main([*argv, "--model", sir_cfg, "--cert", cert_path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "validation error: certificate dimension 1 does not match model dimension 2\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium", "--N", "30", "--delta", "0.3"],
        ["cutoff", "--N", "20", "--x0", "1,1", "--s-grid=0,1", "--reps", "10"],
        ["couple", "--N", "50", "--reps", "1", "--horizon", "1"],
        ["simulate", "--N", "20", "--x0", "1,1", "--delta", "0.5"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_certificate_of_another_model_is_a_validation_error(sir_cfg, tmp_path, capsys, argv):
    # the certificate of SIR at alpha 2 (c = (0.5, 1)) given to SIR at alpha 3,
    # whose drift at that c is (1 - 1.5, 1.5 - 1)
    assert main(["analyze", "--model", sir_cfg, "--out", str(tmp_path / "analyze")]) == 0
    cert_path = str(tmp_path / "analyze" / "certificate.json")
    other = tmp_path / "sir3.cfg"
    other.write_text(SIR.replace("alpha = 2.0", "alpha = 3.0"))
    capsys.readouterr()
    code = main([*argv, "--model", str(other), "--cert", cert_path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == (
        "validation error: certificate is not one of this model: the drift at its c is 0.5 "
        "(a fixed point needs at most 1e-09)\n"
    )


def test_a_certificate_with_another_jacobian_is_a_validation_error(tmp_path, capsys):
    # c = 1.05 is the fixed point of drift 1.05 - x1, whose Jacobian is -1, not -2
    cfg, cert_path = tmp_path / "bd.cfg", tmp_path / "cert.json"
    cfg.write_text("[dimension]\n1\n[jumps]\n1 : 1.05\n-1 : x1\n")
    identity_certificate(d=1, c=(1.05,)).dump(cert_path)
    args = ["--model", str(cfg), "--cert", str(cert_path), "--N", "10", "--delta", "0.5"]
    assert main(["equilibrium", *args, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "validation error: certificate is not one of this model: its A differs from the Jacobian "
        "at c by 1 (at most 1e-09 of its largest entry is allowed)\n"
    )


def _data(out):
    """Each output's data: CSV rows past the provenance lines, JSON without provenance."""
    data = {}
    for name in sorted(os.listdir(out)):
        text = read(os.path.join(out, name)).decode()
        if name.endswith(".csv"):
            data[name] = [ln for ln in text.splitlines() if not ln.startswith("#")]
        else:
            data[name] = {k: v for k, v in json.loads(text).items() if k != "provenance"}
    return data


def test_a_saved_certificate_gives_the_outputs_of_the_certificate_it_saved(sir_cfg, tmp_path, capsys):
    assert main(["analyze", "--model", sir_cfg, "--out", str(tmp_path / "analyze")]) == 0
    cert_path = str(tmp_path / "analyze" / "certificate.json")
    runs = [
        ["equilibrium", "--N", "30", "--delta", "0.3", "--seed", "2"],
        ["cutoff", "--N", "30", "--x0", "1,1", "--s-grid=-1,1", "--reps", "200", "--delta", "0.6",
         "--workers", "1", "--seed", "3"],
        ["couple", "--N", "100", "--reps", "4", "--horizon", "1.0", "--workers", "1", "--seed", "4"],
    ]
    for argv in runs:
        outs = []
        for extra in ([], ["--cert", cert_path]):
            out = str(tmp_path / f"{argv[0]}{len(extra)}")
            assert main([*argv, "--model", sir_cfg, *extra, "--out", out]) == 0
            outs.append(_data(out))
        assert outs[0] == outs[1], argv[0]
        assert len(outs[0]) >= 2


def test_equilibrium_downgrades_to_empirical_above_cap(sir_cfg, tmp_path, capsys):
    # exceeding the state cap falls back to the occupation estimate, logged
    # to stderr rather than fatal
    out = str(tmp_path / "out")
    code = main(
        [
            "equilibrium",
            "--model",
            sir_cfg,
            "--N",
            "30",
            "--delta",
            "0.6",
            "--seed",
            "2",
            "--state-cap",
            "50",
            "--samples",
            "50000",
            "--out",
            out,
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    summary = json.load(open(os.path.join(out, "equilibrium.json")))
    entry = summary["N"][0]
    assert entry["pi_method"] == "empirical"
    # the sampled pi's plug-in bias scale sits next to its TV
    assert entry["bias_floor"] == math.sqrt(entry["states"] / 50000)
    assert "falling back" in captured.err


def test_fallback_warning_is_one_bare_stderr_line_per_run(sir_cfg, tmp_path, capsys):
    # the module logger's message reaches stderr with its old text, and the
    # handler main attaches leaves with the run, so a second run logs once
    args = ["cutoff", "--model", sir_cfg, "--N", "30", "--x0", "1,1", "--s-grid", "0"]
    args += ["--reps", "50", "--delta", "0.6", "--state-cap", "50", "--samples", "2000"]
    for run in ("a", "b"):
        assert main(args + ["--workers", "1", "--out", str(tmp_path / run)]) == 0
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"N=30: exact pi unavailable \(expected \S+ states exceeds cap 50\); "
            r"falling back to occupation estimate\n",
            err,
        ), err


def test_report_empty_dir(tmp_path, capsys):
    out = str(tmp_path / "empty")
    os.makedirs(out)
    code = main(["report", "--out", out])
    assert code == 0
    idx = json.load(open(os.path.join(out, "index.json")))
    assert idx["artifacts"] == []


def test_report_indexes_and_is_idempotent(sir_cfg, tmp_path):
    out = str(tmp_path / "out")
    main(
        [
            "cutoff",
            "--model",
            sir_cfg,
            "--N",
            "30",
            "--x0",
            "1,1",
            "--s-grid",
            "1",
            "--reps",
            "200",
            "--delta",
            "0.6",
            "--seed",
            "1",
            "--workers",
            "1",
            "--out",
            out,
        ]
    )
    assert main(["report", "--out", out]) == 0
    first = {
        name: read(os.path.join(out, name))
        for name in os.listdir(out)
    }
    assert main(["report", "--out", out]) == 0
    second = {
        name: read(os.path.join(out, name))
        for name in os.listdir(out)
    }
    assert first == second
    idx = json.load(open(os.path.join(out, "index.json")))
    assert len(idx["artifacts"]) == 1
    assert idx["artifacts"][0]["dat"] == "cutoff_N30.dat"


def test_report_missing_expected_inputs(tmp_path, capsys):
    out = str(tmp_path / "out")
    os.makedirs(out)
    code = main(["report", "--out", out, "--expect", "cutoff_N30.csv"])
    assert code == 2
    msg = json.loads(capsys.readouterr().out)
    assert msg["missing"] == ["cutoff_N30.csv"]


def test_restriction_above_delta0_is_validation_error(sir_cfg, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(
        [
            "simulate",
            "--model",
            sir_cfg,
            "--N",
            "50",
            "--x0",
            "0.5,1",
            "--delta",
            "0.5",
            "--out",
            out,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.match(r"^validation error: restriction delta 0\.5 must lie in \(0, delta0=[\d.]+\]$", err[0])


# the options each subcommand reads
SUBCOMMAND_OPTIONS = {
    "validate": {"--model", "--out", "--rho-fraction", "--guess", "--search-radius"},
    "analyze": {"--model", "--out", "--rho-fraction", "--guess", "--search-radius"},
    "simulate": {
        "--model", "--out", "--seed", "--rho-fraction", "--cert", "--guess",
        "--N", "--x0", "--horizon", "--delta",
    },
    "equilibrium": {
        "--model", "--out", "--seed", "--rho-fraction", "--cert", "--guess", "--state-cap",
        "--N", "--delta", "--samples",
    },
    "cutoff": {
        "--model", "--out", "--seed", "--workers", "--rho-fraction", "--cert", "--guess",
        "--state-cap", "--N", "--x0", "--s-grid", "--reps", "--delta", "--samples",
    },
    "couple": {
        "--model", "--out", "--seed", "--workers", "--rho-fraction", "--cert", "--guess",
        "--search-radius", "--N", "--reps", "--horizon", "--h0", "--k2", "--record",
        "--fit-horizon",
    },
    "report": {"--out", "--expect"},
}


def test_each_subcommand_declares_only_the_options_it_reads():
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert declared == SUBCOMMAND_OPTIONS
    assert sum(map(len, declared.values())) == 61


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--workers", "2"],
        ["simulate", "--model", "m.cfg", "--N", "50", "--x0", "1,1", "--state-cap", "5"],
        ["validate", "--model", "m.cfg", "--cert", "x"],
    ],
)
def test_options_a_subcommand_does_not_read_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--model", "m.cfg"],
        ["simulate", "--model", "m.cfg", "--N", "50", "--x0", "1,1"],
        ["equilibrium", "--model", "m.cfg", "--N", "30"],
        ["cutoff", "--model", "m.cfg", "--N", "50", "--x0", "1,1", "--s-grid", "0"],
        ["couple", "--model", "m.cfg", "--N", "50"],
        ["report"],
    ],
)
def test_subcommands_that_write_require_out(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err


def test_couple_search_radius_reaches_the_jump_analysis(tmp_path, capsys):
    p = tmp_path / "wide.cfg"
    p.write_text(WIDE_JUMPS)
    args = ["couple", "--model", str(p), "--N", "200", "--horizon", "0.5", "--k2", "5.0"]
    args += ["--reps", "2", "--workers", "1", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "raise search_radius" in capsys.readouterr().err
    assert main(args + ["--search-radius", "16"]) == 0
    summary = json.load(open(tmp_path / "out" / "couple.json"))
    assert summary["reps"] == 2


def test_couple_search_radius_past_the_decompositions_keeps_the_outputs(sir_cfg, tmp_path):
    # SIR's unit decompositions all lie within the default radius, so a
    # wider search finds the same nu and the same rows
    args = ["couple", "--model", sir_cfg, "--N", "100", "--horizon", "2.0", "--k2", "5.0"]
    args += ["--reps", "4", "--workers", "1", "--seed", "3"]
    lines = {}
    for radius in ("8", "16"):
        out = tmp_path / radius
        assert main(args + ["--search-radius", radius, "--out", str(out)]) == 0
        lines[radius] = [
            ln
            for name in ("couple_trace.csv", "couple_ensemble.csv")
            for ln in read(out / name).decode().splitlines()
            if not ln.startswith("# config_hash=")
        ]
    assert any(ln.startswith("# nuK3=") for ln in lines["8"])
    assert lines["8"] == lines["16"]
