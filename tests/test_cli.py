import json

import numpy as np
import pytest

from kerrloss import checks, cli, evolution, noise, spectral
from kerrloss.fockbasis import FockState, Truncation
from kerrloss.superops import ModelParams


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


def test_spectrum_command_builds_no_eigenvector(tmp_path, monkeypatch, capsys):
    # eigenvalues and the degeneracy scan only: no factor build and no
    # biorthogonality gate, at every case, Hamiltonian-only included
    def forbidden(*args, **kwargs):
        raise AssertionError("spectrum built or gated eigenvectors")

    monkeypatch.setattr(spectral.EigenvectorBuilder, "fill_blocks", forbidden)
    monkeypatch.setattr(spectral, "check_biorthogonality", forbidden)
    for rates in (["--kappa1", "0.3"], ["--kappa1", "0"], ["--kappa2", "0"],
                  ["--kappa1", "0", "--kappa2", "0"]):
        out = str(tmp_path / "_".join(rates))
        assert run(["spectrum", "--nmax", "40", *rates, "--out", out]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "spectrum written; 1681 zero-real-part modes"


def test_spectrum_degeneracy_scan_failure_exits_as_gate_failure(tmp_path, monkeypatch, capsys):
    # kappa1 = 0 taken for a generic ratio: the scan finds a collision it
    # does not expect
    monkeypatch.setattr(spectral, "classify", lambda params: spectral.CaseTag.GENERIC_RATIO)
    out = str(tmp_path / "scan")
    assert run(["spectrum", "--nmax", "4", "--kappa1", "0", "--out", out]) == cli.EXIT_GATE_FAIL
    assert "degeneracy scan found" in capsys.readouterr().err


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


def test_config_times_may_be_one_number(tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("times = 0.5\nnmax = 4\n")
    out = tmp_path / "ev"
    assert run(["evolve", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    assert {line.split(",")[0] for line in read(out / "expectations.csv").splitlines()[2:]} == {"0.5"}


@pytest.mark.parametrize("command, key, value", [
    ("spectrum", "nmax", "6.7"),
    ("noise", "N_J", "65.9"),
    ("verify", "seed", "1.5"),
])
def test_fractional_integer_setting_is_validation_error(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "frac.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == cli.EXIT_VALIDATION
    assert f"invalid int value: '{value}'" in capsys.readouterr().err


def test_explicit_flag_beats_config_file_at_its_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa1 = 0.25\nnmax = 5\n")
    out = str(tmp_path / "run")
    assert run(["spectrum", "--config", str(cfg), "--kappa1", "1.0", "--out", out]) == cli.EXIT_OK
    from_file = read(out + "/spectrum.csv")
    assert run(["spectrum", "--nmax", "5", "--out", out]) == cli.EXIT_OK
    assert read(out + "/spectrum.csv") == from_file


@pytest.mark.parametrize("command, text, files", [
    ("evolve", "omega = 1\nU = -0.4\ntimes = 2\nnmax = 5\n", ["evolution.csv", "expectations.csv"]),
    ("noise", "omega = 1\nt = 2\nnmax = 14\nN_J = 65\n", ["noise.json", "Z.csv", "P.csv"]),
])
def test_config_file_run_matches_the_same_flags(tmp_path, command, text, files):
    # a float setting spelled as an integer in the file hashes as the flag
    # does, and a value starting with "-" is a value, not an option
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = str(tmp_path / "run")
    assert run([command, "--config", str(cfg), "--out", out]) == cli.EXIT_OK
    from_file = [read(f"{out}/{name}") for name in files]
    flags = [f"--{key.strip().replace('_', '-')}={value.strip()}"
             for key, value in (line.split("=") for line in text.splitlines())]
    assert run([command, *flags, "--out", out]) == cli.EXIT_OK
    assert [read(f"{out}/{name}") for name in files] == from_file


@pytest.mark.parametrize("command, line", [
    ("spectrum", "nmaxx = 5"),
    ("noise", "J-max = 16"),
    ("spectrum", "help = true"),
    ("evolve", "heisenberg = 1"),
    ("evolve", "oracle = yes"),
    ("evolve", "initial = 5"),
])
def test_bad_config_line_is_one_validation_error_line(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"nmax = 4\n{line}\n")
    out = tmp_path / "x"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("validation error:")
    assert not out.exists()


def test_each_command_takes_only_the_flags_it_reads():
    model = {"omega", "U", "kappa1", "kappa2", "nmax"}
    reads = {
        "spectrum": model,
        "eigvecs": model,
        "evolve": model | {"times", "initial", "oracle", "heisenberg"},
        "verify": {"seed", "inject_c_sign_fault"},
        "noise": model | {"t", "initial", "J_max", "N_J"},
    }
    (commands,) = [a.choices for a in cli.build_parser()._actions if a.dest == "command"]
    takes = {name: {a.dest for a in p._actions if a.option_strings} - {"help"}
             for name, p in commands.items()}
    assert takes == {name: dests | {"out", "config"} for name, dests in reads.items()}
    assert sum(map(len, takes.values())) == 40


IGNORED = [("verify", "nmax", "40"), ("verify", "kappa1", "7")] + [
    (command, "seed", "5") for command in ("spectrum", "eigvecs", "evolve", "noise")
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", IGNORED)
def test_ignored_setting_is_one_validation_error_line(tmp_path, capsys, source, command,
                                                      key, value):
    out = tmp_path / "x"
    if source == "flag":
        argv = [command, f"--{key}", value, "--out", str(out)]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = [command, "--config", str(cfg), "--out", str(out)]
    assert run(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("validation error:") and key in err
    assert not out.exists()


def first_line(path):
    return read(path).splitlines()[0]


@pytest.mark.parametrize("command, argv, name", [
    ("spectrum", ["--nmax", "4"], "spectrum.csv"),
    ("eigvecs", ["--nmax", "4"], "eigvecs.csv"),
    ("evolve", ["--nmax", "4", "--times", "1"], "evolution.csv"),
    ("noise", ["--t", "2", "--N-J", "65"], "Z.csv"),
])
def test_hash_is_the_same_in_every_out_directory(tmp_path, command, argv, name):
    for out in ("a", "b"):
        assert run([command, *argv, "--out", str(tmp_path / out)]) == cli.EXIT_OK
    assert first_line(tmp_path / "a" / name) == first_line(tmp_path / "b" / name)


def test_verify_hash_is_the_same_in_every_out_directory(tmp_path, monkeypatch, verify_report):
    monkeypatch.setattr(checks, "run", lambda seed, inject_c_sign_fault: [
        {"check": "eigenvalues", "max_dev": 0.0, "tolerance": 1e-12, "pass": True}])
    assert run(["verify", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert json.loads(read(tmp_path / "verify.json"))["config_hash"] == (
        verify_report[1]["config_hash"])


def test_hash_ignores_the_spelling_of_times_and_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmax = 4\ntimes = 0.1, 1.0, 5\n")
    runs = {
        "flags": ["--nmax", "4", "--times", "0.1,1,5"],
        "spelled": ["--nmax", "4", "--times", " 1e-1 ,1.00,5.0,"],
        "config": ["--config", str(cfg)],
    }
    for out, argv in runs.items():
        assert run(["evolve", *argv, "--out", str(tmp_path / out)]) == cli.EXIT_OK
    files = {out: read(tmp_path / out / "expectations.csv") for out in runs}
    assert files["spelled"] == files["flags"] and files["config"] == files["flags"]


def test_hash_reads_the_initial_state_by_content(tmp_path):
    path = tmp_path / "state.json"
    hashes = []
    for n, spec in enumerate(["file", "file", "fock:0", "vacuum"]):
        if spec == "file":
            path.write_text(FockState.coherent(Truncation(4), 0.3 + 0.9 * n).to_json())
            spec = f"file:{path}"
        out = tmp_path / str(n)
        argv = ["evolve", "--nmax", "4", "--times", "0.1", "--initial", spec, "--out", str(out)]
        assert run(argv) == cli.EXIT_OK
        hashes.append(first_line(out / "evolution.csv"))
    # two states saved at one path differ; two spellings of the vacuum agree
    assert hashes[0] != hashes[1] and hashes[2] == hashes[3]
    path.write_text(FockState.vacuum(Truncation(4)).to_json())
    out = tmp_path / "vacuum-file"
    assert run(["evolve", "--nmax", "4", "--times", "0.1", "--initial", f"file:{path}",
                "--out", str(out)]) == cli.EXIT_OK
    assert first_line(out / "evolution.csv") == hashes[3]


def test_hash_ignores_the_hermitian_flag_of_a_state_file(tmp_path):
    # the flag shapes no output, so the header reads the entries alone
    states = {
        "plain": {"n_max": 4, "entries": [[1, 1, 1, 0]]},
        "flagged": {"n_max": 4, "hermitian": True, "entries": [[1, 1, 1, 0]]},
        "changed": {"n_max": 4, "hermitian": True, "entries": [[1, 1, 0.5, 0]]},
    }
    heads = {}
    for name, payload in states.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / name
        assert run(["evolve", "--nmax", "4", "--initial", f"file:{path}",
                    "--out", str(out)]) == cli.EXIT_OK
        heads[name] = first_line(out / "evolution.csv")
    assert heads["plain"] == heads["flagged"] != heads["changed"]


def test_bad_flag_value_is_validation_error(tmp_path, capsys):
    assert run(["spectrum", "--nmax", "abc", "--out", str(tmp_path / "x")]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error:")
    with pytest.raises(SystemExit) as exc:
        run(["spectrum", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("argv", [
    ["evolve", "--nmax", "10", "--times", "1"],
    ["noise", "--nmax", "14", "--t", "0.5", "--N-J", "65"],
])
def test_initial_state_file_at_another_cutoff_is_validation_error(tmp_path, capsys, argv):
    path = tmp_path / "state.json"
    path.write_text(FockState.coherent(Truncation(8), 0.8).to_json())
    out = tmp_path / "x"
    assert run(argv + ["--initial", f"file:{path}", "--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and "n_max=8" in err and f"nmax={argv[2]}" in err


def test_bad_initial_state_is_validation_error(tmp_path):
    out = str(tmp_path / "x")
    code = run(["evolve", "--initial", "squeezed:2", "--out", out])
    assert code == cli.EXIT_VALIDATION


@pytest.mark.parametrize(
    "payload",
    [
        {"n_max": 4, "entries": [[-1, -1, 1, 0]]},  # would wrap around to |4><4|
        {"n_max": 4, "entries": [[0, 0, float("nan"), 0]]},
        {"n_max": 4, "entries": [[5, 5, 1, 0]]},
        {"entries": [[0, 0, 1, 0]]},
        {"n_max": 4, "entries": [[0, 0, None, 0]]},
        {"n_max": 4, "entries": [[1.5, 0.9, 1, 0]]},  # would truncate to (1, 0)
        {"n_max": 4.9, "entries": [[0, 0, 1, 0]]},  # would truncate to 4
        {"n_max": 4, "hermitian": "false", "entries": [[0, 0, 1, 0]]},  # bool("false") is True
        {"n_max": 4, "entries": [[1, 1, 1, 0], [1, 1, 0.25, 0]]},  # the last value would win
    ],
    ids=["negative_level", "nan_entry", "level_above_nmax", "missing_nmax", "null_entry",
         "fractional_level", "fractional_nmax", "string_hermitian", "repeated_level_pair"],
)
def test_bad_initial_state_file_is_validation_error(tmp_path, capsys, payload):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    argv = ["evolve", "--nmax", "4", "--times", "1", "--initial", f"file:{path}",
            "--out", str(tmp_path / "x")]
    assert run(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error:")


def test_config_file_switches_flags(tmp_path, monkeypatch, capsys):
    # each command refuses the other's keys, so each gets its own file
    cfg = tmp_path / "flags.cfg"
    cfg.write_text("oracle = false\nnmax = 4\n")
    out = str(tmp_path / "ev")
    assert run(["evolve", "--config", str(cfg), "--times", "1", "--out", out]) == cli.EXIT_OK
    assert "oracle" not in capsys.readouterr().out
    cfg.write_text("oracle = true\nnmax = 4\n")
    assert run(["evolve", "--config", str(cfg), "--times", "1", "--out", out]) == cli.EXIT_OK
    assert "oracle" in capsys.readouterr().out
    cfg.write_text("inject_c_sign_fault = FALSE\n")
    seen = []

    def fake_run(seed, inject_c_sign_fault):
        seen.append(inject_c_sign_fault)
        return [{"check": "eigenvalues", "max_dev": 0.0, "tolerance": 1e-12, "pass": True}]

    monkeypatch.setattr(checks, "run", fake_run)
    assert run(["verify", "--config", str(cfg), "--out", out]) == cli.EXIT_OK
    cfg.write_text("inject_c_sign_fault = True\n")
    run(["verify", "--config", str(cfg), "--out", out])
    assert seen == [False, True]


def test_non_finite_input_is_validation_error(tmp_path):
    out = str(tmp_path / "nonfinite")
    assert run(["spectrum", "--omega", "nan", "--out", out]) == cli.EXIT_VALIDATION
    assert run(["evolve", "--times", "nan,inf", "--out", out]) == cli.EXIT_VALIDATION
    assert run(["evolve", "--initial", "coherent:nan", "--out", out]) == cli.EXIT_VALIDATION
    assert run(["evolve", "--initial", "coherent:inf", "--out", out]) == cli.EXIT_VALIDATION
    assert run(["noise", "--t", "nan", "--out", out]) == cli.EXIT_VALIDATION
    assert run(["noise", "--J-max", "inf", "--out", out]) == cli.EXIT_VALIDATION
    # a negative time is bad input, not a gate failure of a backward evolution
    assert run(["noise", "--t", "-1", "--out", out]) == cli.EXIT_VALIDATION
    # finite rates whose ratio kappa1/kappa2 overflows
    assert run(["spectrum", "--kappa2", "1e-320", "--out", out]) == cli.EXIT_VALIDATION
    assert run(
        ["spectrum", "--kappa1", "1e300", "--kappa2", "1e-10", "--out", out]
    ) == cli.EXIT_VALIDATION


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


def _evolve_tables_loop(states, factors):
    """evolution.csv, expectations.csv and heisenberg_a.csv as they were
    first written: one f-string per row; {t: state} and {t: a-factor row}."""
    traj, expect, heis = ["t,n1,n2,re,im"], ["t,obs,re,im"], ["t,k,re_factor,im_factor"]
    for t, state in states.items():
        for n1, n2 in np.argwhere(state.entries != 0):
            v = state.entries[n1, n2]
            traj.append(f"{t:.17g},{n1},{n2},{v.real:.17g},{v.imag:.17g}")
        for name, val in cli._expectations(state).items():
            expect.append(f"{t:.17g},{name},{val.real:.17g},{val.imag:.17g}")
    for t, row in factors.items():
        for k, f in enumerate(row):
            heis.append(f"{t:.17g},{k},{f.real:.17g},{f.imag:.17g}")
    return ["\n".join(lines) + "\n" for lines in (traj, expect, heis)]


# parts the f-string loops write with their sign or as a word: signed zeros,
# the smallest subnormal, the largest double, infinities and nan
EDGE_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.0 / 3,
              float("inf"), float("-inf"), float("nan")]


def _edge_complex(rng, shape):
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = rng.choice(EDGE_PARTS, shape), rng.choice(EDGE_PARTS, shape)
    return z


def test_evolve_tables_match_the_f_string_loops(tmp_path, monkeypatch):
    trunc, times = Truncation(4), (0.0, 0.5, 1e-300)
    rng = np.random.default_rng(31)
    states, factors = {}, {}
    for t in times:
        entries = _edge_complex(rng, (5, 5))
        entries[0, :3] = [complex(-0.0, -0.0), complex(-0.0, 0.5), complex(0.25, -0.0)]
        states[t] = FockState(entries)
        factors[t] = _edge_complex(rng, 4)
    monkeypatch.setattr(evolution, "propagate_phi", lambda params, initial, t, coeffs: states[t])
    monkeypatch.setattr(evolution, "heisenberg_a_factors",
                        lambda params, trunc, t, coeffs: factors[t])
    out = str(tmp_path / "edge")
    argv = ["evolve", "--nmax", str(trunc.n_max), "--times", "0,0.5,1e-300", "--heisenberg", "a",
            "--out", out]
    with np.errstate(invalid="ignore", over="ignore"):
        assert run(argv) == cli.EXIT_OK
        refs = _evolve_tables_loop(states, factors)
    for name, ref in zip(("evolution", "expectations", "heisenberg_a"), refs):
        assert read(f"{out}/{name}.csv").split("\n", 1)[1] == ref, name
    # -0 - 0j is a zero entry, skipped like 0j; one zero part keeps its sign
    assert "\n0,0,1,-0,0.5\n0,0,2,0.25,-0\n" in refs[0] and "\n0,0,0," not in refs[0]


def test_noise_tables_match_the_f_string_loops(tmp_path, monkeypatch):
    rng = np.random.default_rng(32)
    J = np.array([-2.5, -0.0, 0.0, 1e-300, 2.5])
    fake = noise.NoiseRun(
        params=ModelParams(1.0, 0.0, 1.0, 1.0), initial=FockState.vacuum(Truncation(4)), t=0.5,
        J_grid=J, Z_values=_edge_complex(rng, 5),
        x_grid=np.array([-1.5, -0.0, 0.0, 5e-324]), P_values=np.array(EDGE_PARTS[:4]),
        moments=np.zeros(6), cumulants=np.array([0.0, 1.0, 0.0, 0.5]), backend="expm")
    monkeypatch.setattr(noise, "run_noise", lambda *args, **kwargs: fake)
    out = str(tmp_path / "edge")
    assert run(["noise", "--nmax", "4", "--out", out]) == cli.EXIT_OK
    z_ref = ["J,re_Z,im_Z"] + [f"{j:.17g},{z.real:.17g},{z.imag:.17g}"
                               for j, z in zip(fake.J_grid, fake.Z_values)]
    p_ref = ["x,P"] + [f"{x:.17g},{p:.17g}" for x, p in zip(fake.x_grid, fake.P_values)]
    assert read(out + "/Z.csv").split("\n", 1)[1] == "\n".join(z_ref) + "\n"
    assert read(out + "/P.csv").split("\n", 1)[1] == "\n".join(p_ref) + "\n"


def test_evolve_heisenberg_table_at_zero_kappa2(tmp_path):
    # the a-factor table of the damped-Kerr product form, row for row the
    # library's, at the times asked for
    out = str(tmp_path / "gauss")
    argv = ["evolve", "--kappa2", "0", "--U", "0.5", "--kappa1", "0.8", "--nmax", "8",
            "--times", "0.2,1.0", "--heisenberg", "a", "--out", out]
    assert run(argv) == cli.EXIT_OK
    rows = [line.split(",") for line in read(out + "/heisenberg_a.csv").splitlines()[2:]]
    assert len(rows) == 2 * 8
    params, trunc = ModelParams(1.0, 0.5, 0.8, 0.0), Truncation(8)
    for t, chunk in zip((0.2, 1.0), (rows[:8], rows[8:])):
        ref = evolution.heisenberg_a_factors(params, trunc, t)
        assert [complex(float(re), float(im)) for _, _, re, im in chunk] == list(ref)


def test_evolve_oracle_at_zero_kappa2_top_fock_level(tmp_path, capsys):
    # the Gaussian limit from the top Fock level at n_max 30, where a product
    # of the eigenvector factors would cancel to a 1e-4 oracle deviation
    out = str(tmp_path / "fock30")
    argv = ["evolve", "--kappa2", "0", "--U", "0.5", "--kappa1", "0.8", "--nmax", "30",
            "--initial", "fock:30", "--oracle", "--out", out]
    assert run(argv) == cli.EXIT_OK
    dev = float(capsys.readouterr().out.split("integration: ")[1].split()[0])
    assert dev < 1e-9


@pytest.fixture(scope="module")
def verify_report(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ver"))
    code = run(["verify", "--out", out])
    return code, json.loads(read(out + "/verify.json"))


def test_verify_passes_and_writes_report(verify_report):
    code, payload = verify_report
    assert code == cli.EXIT_OK
    assert set(payload) == {"config_hash", "checks"}
    assert len(payload["checks"]) > 10
    for c in payload["checks"]:
        assert set(c) == {"check", "max_dev", "tolerance", "pass"}
        assert c["pass"]


def test_verify_reports_every_registry_check_once(verify_report):
    names = [c["check"] for c in verify_report[1]["checks"]]
    assert len(names) == len(set(names))
    assert set(names) == set(checks.TOLERANCES)


def test_verify_detects_injected_sign_fault(tmp_path):
    out = str(tmp_path / "fault")
    assert run(["verify", "--inject-c-sign-fault", "--out", out]) == cli.EXIT_VERIFY_FAIL
    payload = json.loads(read(out + "/verify.json"))
    failed = {c["check"] for c in payload["checks"] if not c["pass"]}
    assert failed == {"eigenvector_residuals", "F_diagonalization_offdiag"}


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


def test_noise_defaults_pass_the_gates(tmp_path):
    out = str(tmp_path / "defaults")
    assert run(["noise", "--out", out]) == cli.EXIT_OK


def test_noise_truncation_gate_exit_code(tmp_path):
    out = str(tmp_path / "gate")
    code = run(
        ["noise", "--kappa2", "0", "--nmax", "3", "--t", "1.0", "--J-max", "8", "--out", out]
    )
    assert code == cli.EXIT_GATE_FAIL


def test_parser_rejects_unknown_command():
    assert run(["frobnicate"]) == cli.EXIT_VALIDATION


def test_internal_consistency_failure_exits_as_gate_failure(tmp_path, monkeypatch, capsys):
    from kerrloss.superops import InternalConsistencyError

    def broken(params, trunc):
        raise InternalConsistencyError("eigenvector block m=0: max|R L - I| too large")

    monkeypatch.setattr(spectral, "decompose", broken)
    out = str(tmp_path / "gate")
    assert run(["eigvecs", "--nmax", "4", "--out", out]) == cli.EXIT_GATE_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical gate failure:")
