import json

import pytest

from kerrloss import cli


def run(argv):
    return cli.main(argv)


def read(path):
    with open(path) as fh:
        return fh.read()


def test_spectrum_rerun_byte_identical(tmp_path):
    out = str(tmp_path / "run")
    args = ["spectrum", "--nmax", "6", "--kappa1", "0.3", "--out", out]
    assert run(args) == cli.EXIT_OK
    first = read(out + "/spectrum.csv")
    assert run(args) == cli.EXIT_OK
    assert read(out + "/spectrum.csv") == first
    assert first.startswith("# config_hash=")
    assert "m,k,re_lambda,im_lambda" in first


def test_eigvecs_writes_table(tmp_path):
    out = str(tmp_path / "vecs")
    assert run(["eigvecs", "--nmax", "4", "--out", out]) == cli.EXIT_OK
    text = read(out + "/eigvecs.csv")
    assert "m,k,p,re,im,side" in text


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa1 = 0.25  # tuned\nnmax = 5\n")
    out = str(tmp_path / "a")
    assert run(["spectrum", "--config", str(cfg), "--out", out]) == cli.EXIT_OK
    baseline = read(out + "/spectrum.csv")
    # a flag passed explicitly beats the config file
    out2 = str(tmp_path / "b")
    assert run(
        ["spectrum", "--config", str(cfg), "--kappa1", "0.5", "--out", out2]
    ) == cli.EXIT_OK
    assert read(out2 + "/spectrum.csv") != baseline
    # config values change the hash relative to pure defaults
    out3 = str(tmp_path / "c")
    assert run(["spectrum", "--nmax", "5", "--out", out3]) == cli.EXIT_OK
    assert read(out3 + "/spectrum.csv") != baseline


def test_malformed_config_is_validation_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert run(["spectrum", "--config", str(cfg)]) == cli.EXIT_VALIDATION


def test_bad_initial_state_is_validation_error(tmp_path):
    out = str(tmp_path / "x")
    code = run(["evolve", "--initial", "squeezed:2", "--out", out])
    assert code == cli.EXIT_VALIDATION


def test_non_finite_input_is_validation_error(tmp_path):
    out = str(tmp_path / "nonfinite")
    assert run(["spectrum", "--omega", "nan", "--out", out]) == cli.EXIT_VALIDATION
    assert run(["evolve", "--times", "nan,inf", "--out", out]) == cli.EXIT_VALIDATION
    assert run(["noise", "--t", "nan", "--out", out]) == cli.EXIT_VALIDATION
    assert run(["noise", "--J-max", "inf", "--out", out]) == cli.EXIT_VALIDATION
    # a negative time is bad input, not a gate failure of a backward evolution
    assert run(["noise", "--t", "-1", "--out", out]) == cli.EXIT_VALIDATION


def test_evolve_with_oracle_and_heisenberg(tmp_path):
    out = str(tmp_path / "ev")
    code = run(
        [
            "evolve",
            "--nmax",
            "8",
            "--times",
            "0.2,1.0",
            "--initial",
            "coherent:0.7",
            "--oracle",
            "--heisenberg",
            "a",
            "--out",
            out,
        ]
    )
    assert code == cli.EXIT_OK
    assert read(out + "/evolution.csv").splitlines()[1] == "t,n1,n2,re,im"
    assert read(out + "/expectations.csv").splitlines()[1] == "t,obs,re,im"
    heis = read(out + "/heisenberg_a.csv").splitlines()
    assert heis[1] == "t,k,re_factor,im_factor"
    assert len(heis) == 2 + 2 * 8


def test_verify_passes_and_writes_report(tmp_path):
    out = str(tmp_path / "ver")
    assert run(["verify", "--out", out]) == cli.EXIT_OK
    payload = json.loads(read(out + "/verify.json"))
    assert set(payload) == {"config_hash", "checks"}
    assert len(payload["checks"]) > 10
    for c in payload["checks"]:
        assert set(c) == {"check", "max_dev", "tolerance", "pass"}
        assert c["pass"]


def test_verify_detects_injected_sign_fault(tmp_path):
    out = str(tmp_path / "fault")
    assert run(["verify", "--inject-c-sign-fault", "--out", out]) == cli.EXIT_VERIFY_FAIL
    payload = json.loads(read(out + "/verify.json"))
    failed = {c["check"] for c in payload["checks"] if not c["pass"]}
    assert any(name.startswith("eigenvector_residuals") for name in failed)
    assert "F_diagonalization_offdiag" in failed


def test_noise_command_outputs(tmp_path):
    out = str(tmp_path / "noise")
    code = run(
        [
            "noise",
            "--kappa2",
            "10",
            "--nmax",
            "14",
            "--t",
            "0.5",
            "--J-max",
            "16",
            "--N-J",
            "129",
            "--out",
            out,
        ]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(read(out + "/noise.json"))
    assert payload["t"] == 0.5
    assert abs(payload["cumulants"][0]) < 1e-6  # vacuum mean stays zero
    assert read(out + "/Z.csv").splitlines()[1] == "J,re_Z,im_Z"
    assert read(out + "/P.csv").splitlines()[1] == "x,P"


def test_noise_truncation_gate_exit_code(tmp_path):
    out = str(tmp_path / "gate")
    code = run(
        ["noise", "--kappa2", "0", "--nmax", "3", "--t", "1.0", "--J-max", "8", "--out", out]
    )
    assert code == cli.EXIT_GATE_FAIL


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        run(["frobnicate"])
