"""Command-line front end.

Subcommands: spectrum, eigvecs, evolve, verify, noise.  Every run is a pure
function of its configuration (flat key=value file plus flag overrides) and
the seed; numeric output files carry the config hash in a header line.

Exit codes: 0 success, 1 validation error, 2 verification failure,
3 numerical gate failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import evolution, noise, oracle, spectral, superops
from .fockbasis import FockState, Truncation
from .specfun import VanishingDenominatorError
from .superops import ModelParams

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY_FAIL = 2
EXIT_GATE_FAIL = 3


def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config_file(path: str) -> dict:
    """Flat key=value file; blank lines and '#' comments ignored."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            out[key.strip()] = _parse_scalar(val.strip())
    return out


def config_hash(settings: dict) -> str:
    canon = "\n".join(f"{k}={settings[k]}" for k in sorted(settings))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write(path: str, header: str, body: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header)
        fh.write(body)


def _merged_settings(args: argparse.Namespace, parser_defaults: dict) -> dict:
    """defaults < config file < explicitly passed flags."""
    settings = dict(parser_defaults)
    if args.config:
        settings.update(load_config_file(args.config))
    for key, val in vars(args).items():
        if key in ("config", "command"):
            continue
        if val != parser_defaults.get(key):
            settings[key] = val
    return settings


def _params(settings: dict) -> ModelParams:
    return ModelParams(
        omega=float(settings["omega"]),
        U=float(settings["U"]),
        kappa1=float(settings["kappa1"]),
        kappa2=float(settings["kappa2"]),
        allow_unitary=True,
    )


def _initial_state(spec_text: str, trunc: Truncation) -> FockState:
    if spec_text == "vacuum":
        return FockState.vacuum(trunc)
    if spec_text.startswith("fock:"):
        return FockState.fock(trunc, int(spec_text.split(":", 1)[1]))
    if spec_text.startswith("coherent:"):
        return FockState.coherent(trunc, complex(spec_text.split(":", 1)[1]))
    if spec_text.startswith("file:"):
        with open(spec_text.split(":", 1)[1]) as fh:
            return FockState.from_json(fh.read())
    raise ValueError(f"unknown initial-state spec {spec_text!r}")


def _parse_times(text: str) -> list[float]:
    times = [float(s) for s in text.split(",") if s.strip()]
    if not times or any(not np.isfinite(t) or t < 0 for t in times):
        raise ValueError("times must be a comma list of finite non-negative numbers")
    return times


def cmd_spectrum(settings: dict) -> int:
    params = _params(settings)
    trunc = Truncation(int(settings["nmax"]))
    decomp = spectral.decompose(params, trunc)
    header = f"# config_hash={config_hash(settings)}\n"
    _write(os.path.join(settings["out"], "spectrum.csv"), header, spectral.spectrum_csv(decomp))
    zero_modes = sum(
        int(abs(lam.real) < 1e-12)
        for m in trunc.blocks()
        for lam in decomp.eigenvalues[m]
    )
    print(f"spectrum written; {zero_modes} zero-real-part modes")
    return EXIT_OK


def cmd_eigvecs(settings: dict) -> int:
    params = _params(settings)
    trunc = Truncation(int(settings["nmax"]))
    decomp = spectral.decompose(params, trunc)
    header = f"# config_hash={config_hash(settings)}\n"
    _write(os.path.join(settings["out"], "eigvecs.csv"), header, spectral.eigenvectors_csv(decomp))
    print("eigenvectors written")
    return EXIT_OK


def _expectations(state: FockState) -> dict[str, complex]:
    a = superops.annihilation(state.truncation)
    n = np.arange(state.truncation.dim)
    parity = np.diag((-1.0) ** n)
    return {
        "N": complex(np.sum(n * np.diag(state.entries))),
        "a": complex(np.trace(a @ state.entries)),
        "parity": complex(np.trace(parity @ state.entries)),
    }


def cmd_evolve(settings: dict) -> int:
    params = _params(settings)
    trunc = Truncation(int(settings["nmax"]))
    initial = _initial_state(settings["initial"], trunc)
    times = _parse_times(settings["times"])
    header = f"# config_hash={config_hash(settings)}\n"
    traj_lines = ["t,n1,n2,re,im"]
    expect_lines = ["t,obs,re,im"]
    max_oracle_dev = 0.0
    coeffs = None
    if params.kappa2 > 0:
        coeffs = evolution.PropagatorCoefficients(params, trunc)
    for t in times:
        state = evolution.propagate_phi(params, initial, t, coeffs)
        if settings.get("oracle"):
            ref = oracle.ode_propagate(
                superops.full_generator(params, trunc), initial, t
            )
            dev = np.max(np.abs(state.entries - ref.entries))
            max_oracle_dev = max(max_oracle_dev, float(dev))
        for n1, n2 in np.argwhere(state.entries != 0):
            v = state.entries[n1, n2]
            traj_lines.append(f"{t:.17g},{n1},{n2},{v.real:.17g},{v.imag:.17g}")
        for name, val in _expectations(state).items():
            expect_lines.append(f"{t:.17g},{name},{val.real:.17g},{val.imag:.17g}")
    _write(os.path.join(settings["out"], "evolution.csv"), header, "\n".join(traj_lines) + "\n")
    _write(os.path.join(settings["out"], "expectations.csv"), header, "\n".join(expect_lines) + "\n")
    if settings.get("heisenberg") == "a":
        if params.kappa2 <= 0:
            raise ValueError("the a-factor table needs kappa2 > 0 (G coefficients)")
        lines = ["t,k,re_factor,im_factor"]
        for t in times:
            for k in range(trunc.n_max):
                f = evolution.heisenberg_a_factor(params, trunc, k, t, coeffs)
                lines.append(f"{t:.17g},{k},{f.real:.17g},{f.imag:.17g}")
        _write(os.path.join(settings["out"], "heisenberg_a.csv"), header, "\n".join(lines) + "\n")
    if settings.get("oracle"):
        print(f"max deviation from oracle integration: {max_oracle_dev:.3e}")
        if max_oracle_dev > 1e-6:
            return EXIT_VERIFY_FAIL
    print("trajectory written")
    return EXIT_OK


def _report(checks: list[dict], settings: dict, name: str) -> int:
    payload = {"config_hash": config_hash(settings), "checks": checks}
    _write(os.path.join(settings["out"], name), "", json.dumps(payload, indent=1) + "\n")
    worst = max(checks, key=lambda c: c["max_dev"] / c["tolerance"])
    ok = all(c["pass"] for c in checks)
    print(
        f"{len(checks)} checks, {'all pass' if ok else 'FAILURES'}; "
        f"worst: {worst['check']} dev {worst['max_dev']:.3e} (tol {worst['tolerance']:.1e})"
    )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _verify_checks(settings: dict, rng: np.random.Generator) -> list[dict]:
    checks: list[dict] = []

    def add(name, dev, tol):
        checks.append(
            {"check": name, "max_dev": float(dev), "tolerance": tol, "pass": bool(dev < tol)}
        )

    n_small = Truncation(10)
    draws = {
        "generic_ratio": ModelParams(0.9, 0.6, 0.37, 1.1),
        "integer_ratio": ModelParams(1.0, 0.5, 2.0, 1.0),
        "zero_kappa1": ModelParams(1.0, 0.5, 0.0, 1.0),
        "zero_kappa2": ModelParams(1.0, 0.5, 0.8, 0.0),
        "hamiltonian_only": ModelParams(1.0, 0.5, 0.0, 0.0, allow_unitary=True),
    }

    # similarity identities (operator algebra both sides)
    for m in (0, 1, -1, 3):
        rep = superops.similarity_identity_suite(draws["generic_ratio"], n_small, m)
        dev = max(r["max_dev"] for r in rep.values())
        add(f"similarity_identities_m{m}", dev, 1e-12)

    # weak symmetry: L commutes with the number commutator on random states
    params = draws["generic_ratio"]
    gen = superops.full_generator(params, n_small)
    X = rng.normal(size=(11, 11)) + 1j * rng.normal(size=(11, 11))
    Nmat = np.diag(np.arange(11.0))
    lhs = gen.apply(Nmat @ X - X @ Nmat)
    rhs = Nmat @ gen.apply(X) - gen.apply(X) @ Nmat
    add("weak_symmetry_commutator", np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)), 1e-12)

    fault = bool(settings.get("inject_c_sign_fault"))
    for tag, params in draws.items():
        if tag == "hamiltonian_only":
            continue
        # eigenvalues vs oracle diagonals
        dev = 0.0
        for m in (-2, 0, 1, 3):
            Lb = superops.liouvillian_block(params, n_small, m)
            lams = np.array(
                [spectral.eigenvalue(params, m, k) for k in range(n_small.block_size(m))]
            )
            dev = max(dev, float(np.max(np.abs(np.diag(Lb.entries) - lams))))
        add(f"eigenvalues_vs_oracle[{tag}]", dev, 1e-12)

        # eigenvector residuals vs the oracle block
        dev = 0.0
        for m in (0, 1, -2):
            Lb = superops.liouvillian_block(params, n_small, m)
            if fault and params.kappa2 > 0:
                idx = np.arange(Lb.entries.shape[0] - 1)
                Lb.entries[idx, idx + 1] *= -1.0  # fault: residuals must blow up
            for k in range(n_small.block_size(m)):
                lam = spectral.eigenvalue(params, m, k)
                v = spectral.right_eigenvector(params, n_small, m, k).coeffs
                u = spectral.left_eigenvector(params, n_small, m, k).coeffs
                dev = max(dev, oracle.right_residual(Lb, lam, v), oracle.left_residual(Lb, lam, u))
        add(f"eigenvector_residuals[{tag}]", dev, 1e-9)

        # biorthonormality / completeness on truncation-safe indices
        decomp = spectral.decompose(params, n_small)
        dev_bi, dev_comp = 0.0, 0.0
        for m in (0, 1, -2):
            R = decomp.R[m].entries
            L = decomp.Lmat[m].entries
            size = R.shape[0]
            dev_bi = max(dev_bi, float(np.max(np.abs(L @ R - np.eye(size)))))
            safe = decomp.safe_bound(m) + 1
            comp = R[:safe, :] @ L[:, :safe]
            dev_comp = max(dev_comp, float(np.max(np.abs(comp - np.eye(safe)))))
        add(f"biorthonormality[{tag}]", dev_bi, 1e-9)
        add(f"completeness[{tag}]", dev_comp, 1e-8)

    # F inverse theorem and diagonalization (generic ratio only)
    params = draws["generic_ratio"]
    dev_inv, dev_diag = 0.0, 0.0
    for m in (0, 1, -2, 3):
        F = spectral.F_matrix(params, n_small, m, "forward")
        Finv = spectral.F_matrix(params, n_small, m, "inverse")
        size = F.shape[0]
        dev_inv = max(dev_inv, float(np.max(np.abs(F @ Finv - np.eye(size)))))
        dev_inv = max(dev_inv, float(np.max(np.abs(Finv @ F - np.eye(size)))))
        T = superops.transformed_block(params, n_small, m, verify=not fault).entries.copy()
        if fault:
            idx = np.arange(size - 1)
            T[idx, idx + 1] *= -1.0
        D = F @ T @ Finv
        dev_diag = max(dev_diag, float(np.max(np.abs(D - np.diag(np.diag(D))))))
    add("F_inverse_theorem", dev_inv, 1e-10)
    add("F_diagonalization_offdiag", dev_diag, 1e-9)

    # oracle propagation equivalence (small, one generic draw)
    params = draws["generic_ratio"]
    trunc = Truncation(8)
    initial = FockState.coherent(trunc, 0.8)
    dev = 0.0
    for t in (0.1, 1.0):
        mine = evolution.propagate_phi(params, initial, t)
        ref = oracle.ode_propagate(superops.full_generator(params, trunc), initial, t)
        dev = max(dev, float(np.max(np.abs(mine.entries - ref.entries))))
    add("propagation_vs_oracle", dev, 1e-6)

    # pure two-body-loss propagator cross-check
    p2 = ModelParams(0.0, 0.0, 0.0, 1.0)
    dev_odd, dev_match = 0.0, 0.0
    for m in range(3):
        for k in range(4):
            for r in range(4):
                if (2 * r + 1) <= 8:
                    dev_odd = max(
                        dev_odd, abs(evolution.g_coefficient(p2, m, k, 2 * r + 1, 0.4))
                    )
                dev_match = max(
                    dev_match,
                    abs(
                        evolution.g_coefficient(p2, m, k, 2 * r, 0.4)
                        - evolution.simaan_g(m, k, r, 0.4, 1.0)
                    ),
                )
    add("two_body_loss_odd_vanishing", dev_odd, 1e-12)
    add("two_body_loss_factorial_form", dev_match, 1e-10)

    # Heisenberg duality
    params = draws["generic_ratio"]
    trunc = Truncation(8)
    rho0 = FockState.coherent(trunc, 0.6)
    obs = FockState(np.diag(np.arange(trunc.dim, dtype=complex)), hermitian=True)
    dev = 0.0
    for t in (0.3, 1.2):
        lhs = np.trace(evolution.propagate_phi(params, rho0, t).entries @ obs.entries)
        rhs = np.conj(
            np.sum(
                np.conj(evolution.heisenberg_phi(params, obs, t).entries) * rho0.entries
            )
        )
        dev = max(dev, abs(lhs - np.conj(rhs)))
    add("heisenberg_duality", dev, 1e-8)
    return checks


def cmd_verify(settings: dict) -> int:
    rng = np.random.default_rng(int(settings["seed"]))
    checks = _verify_checks(settings, rng)
    return _report(checks, settings, "verify.json")


def cmd_noise(settings: dict) -> int:
    params = _params(settings)
    trunc = Truncation(int(settings["nmax"]))
    initial = _initial_state(settings["initial"], trunc)
    t, J_max = float(settings["t"]), float(settings["J_max"])
    if not (np.isfinite(t) and t >= 0 and np.isfinite(J_max) and J_max > 0):
        raise ValueError("--t must be finite and non-negative, --J-max finite and positive")
    run = noise.run_noise(params, initial, t, J_max=J_max, N_J=int(settings["N_J"]))
    header = f"# config_hash={config_hash(settings)}\n"
    out = settings["out"]
    _write(os.path.join(out, "noise.json"), "", run.to_json() + "\n")
    _write(os.path.join(out, "Z.csv"), header, run.z_csv())
    _write(os.path.join(out, "P.csv"), header, run.p_csv())
    print(
        f"t={run.t}: variance {run.cumulants[1]:.6g}, "
        f"excess kurtosis {run.excess_kurtosis:.6g}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kerrloss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--omega", type=float, default=1.0)
        p.add_argument("--U", type=float, default=0.0)
        p.add_argument("--kappa1", type=float, default=1.0)
        p.add_argument("--kappa2", type=float, default=1.0)
        p.add_argument("--nmax", type=int, default=12)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=str, default=None)

    common(sub.add_parser("spectrum", help="eigenvalue table over all blocks"))
    common(sub.add_parser("eigvecs", help="right/left eigenvector dump"))

    p = sub.add_parser("evolve", help="exact trajectory and expectation values")
    common(p)
    p.add_argument("--times", type=str, default="0.1,1,5")
    p.add_argument("--initial", type=str, default="vacuum")
    p.add_argument("--oracle", action="store_true", help="also integrate the reference ODE")
    p.add_argument("--heisenberg", type=str, default=None, choices=["a"])

    p = sub.add_parser("verify", help="run all invariant suites")
    common(p)
    p.add_argument(
        "--inject-c-sign-fault",
        dest="inject_c_sign_fault",
        action="store_true",
        help="debug: flip the superdiagonal sign; residual/F checks must fail",
    )

    p = sub.add_parser("noise", help="generating function, P(x), cumulants")
    common(p)
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--initial", type=str, default="vacuum")
    p.add_argument("--J-max", dest="J_max", type=float, default=8.0)
    p.add_argument("--N-J", dest="N_J", type=int, default=257)
    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "eigvecs": cmd_eigvecs,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
    "noise": cmd_noise,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    defaults = vars(build_parser().parse_args([args.command]))
    defaults.pop("command", None)
    try:
        settings = _merged_settings(args, defaults)
        settings["command"] = args.command
        return _COMMANDS[args.command](settings)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        noise.GridAdequacyError,
        noise.TruncationError,
        VanishingDenominatorError,
        oracle.StiffnessError,
    ) as exc:
        print(f"numerical gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE_FAIL


if __name__ == "__main__":
    sys.exit(main())
