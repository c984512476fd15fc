"""Command-line front end.

Subcommands: spectrum, eigvecs, evolve, verify, noise, each with only the
flags it reads.  Every run is a pure function of its settings; output files
carry the hash of what shapes them (:func:`config_hash`).  A ``--config``
file's ``key = value`` lines are keyed by flag dest names (``J_max``),
``true``/``false`` for a store-true flag; each is parsed as ``--key=value``
before the command line's flags, so an unknown key is refused and an
explicit flag wins.

Exit codes: 0 success, 1 validation error (every parse error included),
2 verification failure, 3 numerical gate failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import checks, evolution, noise, oracle, spectral, superops
from .fockbasis import FockState, Truncation, csv_groups, csv_table
from .specfun import VanishingDenominatorError
from .superops import ModelParams

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFY_FAIL = 2
EXIT_GATE_FAIL = 3


class _Parser(argparse.ArgumentParser):
    """A parse error raises ValueError, so it exits 1 like any bad input."""

    def error(self, message):
        raise ValueError(message)


def _config_argv(parser: argparse.ArgumentParser, command: str, path: str) -> list[str]:
    """A flat key=value file as flags of ``command``; '#' comments ignored."""
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    flags = {
        a.dest: a for a in commands[command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    argv = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in flags:
                raise ValueError(f"unknown config key {key!r}")
            flag = flags[key].option_strings[0]
            if flags[key].nargs != 0:
                argv.append(f"{flag}={value}")  # one token: a value may start with '-'
            elif value.lower() == "true":
                argv.append(flag)
            elif value.lower() != "false":
                raise ValueError(f"{key} must be true or false, got {value!r}")
    return argv


def _number(text: str, positive: bool = False) -> float:
    """An argparse type: a finite number, non-negative or else positive."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "non-negative"
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite {kind} number")
    return value


def _times(text: str) -> list[float]:
    """An argparse type: a comma list of finite non-negative numbers."""
    times = [_number(s) for s in text.split(",") if s.strip()]
    if not times:
        raise argparse.ArgumentTypeError(f"{text!r} holds no time")
    return times


def config_hash(settings: dict, initial: FockState | None = None) -> str:
    """Hash of what shapes the output: the parsed settings but ``out`` and
    ``config``, the initial state by its entries (not its Hermitian flag)."""
    shaped = {k: v for k, v in settings.items() if k not in ("out", "config")}
    if initial is not None:
        shaped["initial"] = hashlib.sha256(initial.entries.tobytes()).hexdigest()
    canon = "\n".join(f"{k}={shaped[k]}" for k in sorted(shaped))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _write(out: str, name: str, *texts: str) -> None:
    os.makedirs(out or ".", exist_ok=True)
    with open(os.path.join(out, name), "w") as fh:
        fh.writelines(texts)


def _params(settings: dict) -> ModelParams:
    rates = (settings[k] for k in ("omega", "U", "kappa1", "kappa2"))
    return ModelParams(*rates, allow_unitary=True)


def _initial_state(spec_text: str, trunc: Truncation) -> FockState:
    if spec_text == "vacuum":
        return FockState.vacuum(trunc)
    if spec_text.startswith("fock:"):
        return FockState.fock(trunc, int(spec_text.split(":", 1)[1]))
    if spec_text.startswith("coherent:"):
        return FockState.coherent(trunc, complex(spec_text.split(":", 1)[1]))
    if spec_text.startswith("file:"):
        with open(spec_text.split(":", 1)[1]) as fh:
            state = FockState.from_json(fh.read())
        if state.n_max != trunc.n_max:
            raise ValueError(f"initial state has n_max={state.n_max}, the run nmax={trunc.n_max}")
        return state
    raise ValueError(f"unknown initial-state spec {spec_text!r}")


def cmd_spectrum(settings: dict) -> int:
    decomp = spectral.spectrum(_params(settings), Truncation(settings["nmax"]))
    header = f"# config_hash={config_hash(settings)}\n"
    _write(settings["out"], "spectrum.csv", header, spectral.spectrum_csv(decomp))
    zero_modes = sum(int(np.sum(np.abs(lam.real) < 1e-12)) for lam in decomp.eigenvalues.values())
    print(f"spectrum written; {zero_modes} zero-real-part modes")
    return EXIT_OK


def cmd_eigvecs(settings: dict) -> int:
    decomp = spectral.decompose(_params(settings), Truncation(settings["nmax"]))
    header = f"# config_hash={config_hash(settings)}\n"
    _write(settings["out"], "eigvecs.csv", header, spectral.eigenvectors_csv(decomp))
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
    trunc = Truncation(settings["nmax"])
    initial = _initial_state(settings["initial"], trunc)
    times = settings["times"]
    header = f"# config_hash={config_hash(settings, initial)}\n"
    traj, expect = [], []  # column chunks, one per time
    max_oracle_dev = 0.0
    coeffs = evolution.PropagatorCoefficients(params, trunc)
    generator = superops.full_generator(params, trunc) if settings["oracle"] else None
    for t in times:
        state = evolution.propagate_phi(params, initial, t, coeffs)
        if generator is not None:
            ref = oracle.ode_propagate(generator, initial, t).entries
            max_oracle_dev = max(max_oracle_dev, float(np.max(np.abs(state.entries - ref))))
        n1, n2 = np.nonzero(state.entries != 0)
        v = state.entries[n1, n2]
        traj.append((np.full(len(v), t), n1, n2, v.real, v.imag))
        names, values = zip(*_expectations(state).items())
        expect.append(([t] * len(names), names, np.real(values), np.imag(values)))
    out = settings["out"]
    _write(out, "evolution.csv", header, csv_groups("t,n1,n2,re,im", traj))
    _write(out, "expectations.csv", header, csv_groups("t,obs,re,im", expect))
    if settings["heisenberg"] == "a":
        f = np.array([evolution.heisenberg_a_factors(params, trunc, t, coeffs) for t in times])
        t, k = np.repeat(times, f.shape[1]), np.tile(np.arange(f.shape[1]), len(times))
        _write(out, "heisenberg_a.csv", header,
               csv_table("t,k,re_factor,im_factor", t, k, f.real.ravel(), f.imag.ravel()))
    if settings["oracle"]:
        print(f"max deviation from oracle integration: {max_oracle_dev:.3e}")
        if max_oracle_dev > 1e-6:
            return EXIT_VERIFY_FAIL
    print("trajectory written")
    return EXIT_OK


def cmd_verify(settings: dict) -> int:
    entries = checks.run(settings["seed"], settings["inject_c_sign_fault"])
    payload = {"config_hash": config_hash(settings), "checks": entries}
    _write(settings["out"], "verify.json", json.dumps(payload, indent=1) + "\n")
    failed = [c["check"] for c in entries if not c["pass"]]
    # structural and exact checks sit at their bound by design; rank the
    # tolerance checks only
    graded = [c for c in entries if checks.TOLERANCES[c["check"]][0] == "<"]
    worst = max(graded, key=lambda c: c["max_dev"] / c["tolerance"])
    print(
        f"{len(entries)} checks, {'FAILED: ' + ', '.join(failed) if failed else 'all pass'}; "
        f"worst: {worst['check']} dev {worst['max_dev']:.3e} (tol {worst['tolerance']:.1e})"
    )
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


def cmd_noise(settings: dict) -> int:
    params = _params(settings)
    trunc = Truncation(settings["nmax"])
    initial = _initial_state(settings["initial"], trunc)
    run = noise.run_noise(params, initial, settings["t"], J_max=settings["J_max"],
                          N_J=settings["N_J"])
    header = f"# config_hash={config_hash(settings, initial)}\n"
    out = settings["out"]
    _write(out, "noise.json", run.to_json() + "\n")
    Z = run.Z_values
    _write(out, "Z.csv", header, csv_table("J,re_Z,im_Z", run.J_grid, Z.real, Z.imag))
    _write(out, "P.csv", header, csv_table("x,P", run.x_grid, run.P_values))
    print(f"t={run.t}: variance {run.cumulants[1]:.6g}, excess kurtosis {run.excess_kurtosis:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kerrloss", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, nmax=None):
        # the model flags, with this --nmax default, unless nmax is None
        p = sub.add_parser(name, help=help)
        if nmax is not None:
            for flag, rate in zip(("--omega", "--U", "--kappa1", "--kappa2"), (1.0, 0.0, 1.0, 1.0)):
                p.add_argument(flag, type=float, default=rate)
            p.add_argument("--nmax", type=int, default=nmax)
        p.add_argument("--out", type=str, default=".")
        p.add_argument("--config", type=str, default=None)
        return p

    command("spectrum", "eigenvalue table over all blocks", nmax=12)
    command("eigvecs", "right/left eigenvector dump", nmax=12)

    p = command("evolve", "exact trajectory and expectation values", nmax=12)
    p.add_argument("--times", type=_times, default="0.1,1,5")
    p.add_argument("--initial", type=str, default="vacuum")
    p.add_argument("--oracle", action="store_true", help="also integrate the reference ODE")
    p.add_argument("--heisenberg", type=str, default=None, choices=["a"])

    p = command("verify", "run acceptance checks 1-7 and 11 at their pinned data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inject-c-sign-fault", action="store_true",
                   help="debug: flip the superdiagonal sign; residual/F checks must fail")

    # at n_max = 12 the default run trips the cutoff gate (edge weight
    # 1.04e-6 at J = 5.25); at 14 its largest edge weight is 8.2e-7
    p = command("noise", "generating function, P(x), cumulants", nmax=14)
    p.add_argument("--t", type=_number, default=2.0)
    p.add_argument("--initial", type=str, default="vacuum")
    p.add_argument("--J-max", type=lambda s: _number(s, positive=True), default=8.0)
    p.add_argument("--N-J", type=int, default=257)
    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "eigvecs": cmd_eigvecs,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
    "noise": cmd_noise,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argparse keeps the last value it sees, so the command line's
            # flags, after the file's, win
            file_argv = _config_argv(parser, args.command, args.config)
            args = parser.parse_args(argv[:1] + file_argv + argv[1:])
        return _COMMANDS[args.command](vars(args))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (noise.GridAdequacyError, noise.TruncationError, VanishingDenominatorError,
            oracle.StiffnessError, superops.InternalConsistencyError) as exc:
        print(f"numerical gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE_FAIL


if __name__ == "__main__":
    sys.exit(main())
