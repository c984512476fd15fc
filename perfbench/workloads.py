"""The four benchmark workloads: seeded inputs, timed op lists, and checks.

Each workload is a triple of plain functions:

- ``inputs(seed)`` builds every input from the seed alone, so equal seeds
  give equal inputs;
- ``ops(inp)`` returns the op list of one pass as ``(label, thunk)`` pairs.
  Only the thunks run inside the timed region;
- ``checks(inp, outputs)`` compares the outputs of a pass with an
  independent route and returns one :class:`Check` per compared quantity.

The tolerances are the ones pinned in ``tests/test_acceptance.py``; the
criterion each comes from is named next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from kerrloss import evolution, noise, oracle, spectral, superops
from kerrloss.fockbasis import FockState, Truncation
from kerrloss.spectral import CaseTag
from kerrloss.superops import ModelParams

#: criterion 6: closed-form propagation against the brute-force exponential
PROPAGATION_TOL = 1e-6
#: criterion 1: eigenvalues against the diagonal of the assembled block
EIGENVALUE_TOL = 1e-12
#: criterion 2: eigenvector residuals against the assembled block
RESIDUAL_TOL = 1e-9
#: criterion 9: moment duality between independent noise routes
MOMENT_TOL = 1e-4
#: criterion 10: kurtosis from the P grid against finite differences of Z
KURTOSIS_TOL = 1e-3
#: criterion 10: total probability mass of the reconstructed density
MASS_TOL = 1e-6

#: the acceptance-suite noise channels; the seed does not change them
LINEAR = ModelParams(1.0, 0.0, 1.0, 0.0)
NONLINEAR = ModelParams(1.0, 0.0, 1.0, 10.0)


@dataclass(frozen=True)
class Check:
    """One compared quantity: which op produced it, and how far off it is."""

    op: int
    name: str
    deviation: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return bool(self.deviation <= self.tolerance)


def _rel(value, reference) -> float:
    """|value - reference| relative to max(1, |reference|)."""
    return float(abs(value - reference) / max(1.0, abs(reference)))


def _state_dev(out: FockState, ref: np.ndarray) -> float:
    """Criterion 6's measure: max entry deviation over the largest reference entry."""
    return float(np.max(np.abs(out.entries - ref)) / np.max(np.abs(ref)))


def _reference_states(params: ModelParams, trunc: Truncation, rhos, times):
    """rho(t) for every start matrix in ``rhos`` at every time, by the sparse
    operator-level generator and scipy's exponential action (the route of
    ``oracle.expm_propagate``), chained over the increasing times."""
    d = trunc.dim
    gen = superops.full_generator(params, trunc).sparse_matrix()
    cols = np.stack([np.asarray(r, dtype=complex).ravel() for r in rhos], axis=1)
    out, prev = [], 0.0
    for t in times:
        if t > prev:
            cols = spla.expm_multiply(gen * (t - prev), cols)
        out.append([cols[:, j].reshape(d, d) for j in range(cols.shape[1])])
        prev = t
    return out


def _expect_a(rho: np.ndarray) -> complex:
    """tr[a rho] = sum_k sqrt(k+1) rho[k+1, k]."""
    k = np.arange(rho.shape[0] - 1)
    return complex(np.sum(np.sqrt(k + 1) * np.diagonal(rho, -1)))


def _a_factor_expect(factors, rho0: np.ndarray) -> complex:
    """tr[a^H(t) rho0] from the a-factor rows, a^H[k, k+1] = f_k sqrt(k+1)."""
    f = np.asarray(factors, dtype=complex)
    k = np.arange(len(f))
    return complex(np.sum(f * np.sqrt(k + 1) * np.diagonal(rho0, -1)[: len(f)]))


def _coherent_alpha(rng) -> complex:
    return complex(rng.uniform(0.5, 1.2) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))


# --------------------------------------------------------------------------
# evolve_warm: one channel, three states, 24 times, one shared coefficient set


EVOLVE_NMAX = 20
EVOLVE_TIMES = 12


def evolve_warm_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    omega, U = rng.uniform(-1.0, 1.0, 2)
    k1, k2 = rng.uniform(0.1, 2.0, 2)
    params = ModelParams(float(omega), float(U), float(k1), float(k2))
    trunc = Truncation(EVOLVE_NMAX)
    d = trunc.dim
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mixed = X @ X.conj().T
    states = {
        "coherent": FockState.coherent(trunc, _coherent_alpha(rng)),
        "random": FockState(mixed / np.trace(mixed).real, hermitian=True),
        "fock10": FockState.fock(trunc, 10),
    }
    return {
        "params": params,
        "trunc": trunc,
        "states": states,
        "times": [float(t) for t in np.geomspace(0.01, 10.0, EVOLVE_TIMES) / params.kappa2],
        "number": FockState(np.diag(np.arange(d, dtype=complex)), hermitian=True),
        "lowering": FockState(superops.annihilation(trunc)),
    }


def evolve_warm_ops(inp: dict) -> list:
    params, trunc = inp["params"], inp["trunc"]
    # one coefficient set for the whole pass, as `kerrloss evolve` keeps one
    coeffs = evolution.PropagatorCoefficients(params, trunc)
    ops = []
    for t in inp["times"]:
        for name, rho in inp["states"].items():
            ops.append((f"propagate {name} t={t:.4g}",
                        lambda rho=rho, t=t: evolution.propagate_phi(params, rho, t, coeffs)))
        for name in ("number", "lowering"):
            ops.append((f"heisenberg {name} t={t:.4g}",
                        lambda obs=inp[name], t=t: evolution.heisenberg_phi(params, obs, t, coeffs)))
        ops.append((f"a-factor rows t={t:.4g}",
                    lambda t=t: [evolution.heisenberg_a_factor(params, trunc, k, t, coeffs)
                                 for k in range(trunc.n_max)]))
    return ops


def evolve_warm_checks(inp: dict, outputs: list) -> list[Check]:
    states = list(inp["states"].values())
    refs = _reference_states(inp["params"], inp["trunc"], [s.entries for s in states],
                             inp["times"])
    number = inp["number"].entries
    lowering = inp["lowering"].entries
    checks, op = [], 0
    for ref in refs:
        for state, ref_rho in zip(states, ref):
            checks.append(Check(op, "propagation", _state_dev(outputs[op], ref_rho),
                                PROPAGATION_TOL))
            op += 1
        # Heisenberg duality tr[O^H(t) rho0] = tr[O rho(t)] on every state
        for obs in (number, lowering):
            dev = max(_rel(np.trace(outputs[op].entries @ s.entries), np.trace(obs @ r))
                      for s, r in zip(states, ref))
            checks.append(Check(op, "heisenberg duality", dev, PROPAGATION_TOL))
            op += 1
        dev = max(_rel(_a_factor_expect(outputs[op], s.entries), _expect_a(r))
                  for s, r in zip(states, ref))
        checks.append(Check(op, "a-factor duality", dev, PROPAGATION_TOL))
        op += 1
    return checks


# --------------------------------------------------------------------------
# scan_cold: twenty fresh parameter draws, four from each case


SCAN_NMAX = 12
SCAN_DRAWS_PER_CASE = 2
SCAN_TIMES = (0.1, 1.0, 5.0)
SCAN_A_TIME = 1.0


def _draw(case: CaseTag, rng) -> ModelParams:
    """One draw with the acceptance suite's ranges for ``case``."""
    omega, U = (float(v) for v in rng.uniform(-1.0, 1.0, 2))
    k1, k2 = (float(v) for v in rng.uniform(0.1, 2.0, 2))
    if case == CaseTag.GENERIC_RATIO:
        return ModelParams(omega, U, k1, k2)
    if case == CaseTag.INTEGER_RATIO:
        return ModelParams(omega, U, float(rng.integers(1, 4)) * k2, k2)
    if case == CaseTag.ZERO_KAPPA1:
        return ModelParams(omega, U, 0.0, k2)
    if case == CaseTag.ZERO_KAPPA2:
        return ModelParams(omega, U, k1, 0.0)
    return ModelParams(omega, U, 0.0, 0.0, allow_unitary=True)


def scan_cold_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    trunc = Truncation(SCAN_NMAX)
    draws = []
    for case in CaseTag:
        for _ in range(SCAN_DRAWS_PER_CASE):
            draws.append((_draw(case, rng), FockState.coherent(trunc, _coherent_alpha(rng))))
    return {"trunc": trunc, "draws": draws}


def _scan_one(params: ModelParams, rho0: FockState, trunc: Truncation) -> dict:
    decomp = spectral.decompose(params, trunc)
    out = {
        "decomp": decomp,
        "spectrum_csv": spectral.spectrum_csv(decomp),
        "eigenvectors_csv": spectral.eigenvectors_csv(decomp),
        # no coefficient set is passed: each call starts from scratch
        "states": [evolution.propagate_phi(params, rho0, t) for t in SCAN_TIMES],
        "a_factors": None,
    }
    if params.kappa2 > 0:
        coeffs = evolution.PropagatorCoefficients(params, trunc)
        out["a_factors"] = [
            evolution.heisenberg_a_factor(params, trunc, k, SCAN_A_TIME, coeffs)
            for k in range(trunc.n_max)
        ]
    return out


def scan_cold_ops(inp: dict) -> list:
    trunc = inp["trunc"]
    return [
        (f"scan draw {i} {spectral.classify(p).value}",
         lambda p=p, rho=rho: _scan_one(p, rho, trunc))
        for i, (p, rho) in enumerate(inp["draws"])
    ]


def scan_cold_checks(inp: dict, outputs: list) -> list[Check]:
    trunc = inp["trunc"]
    times = sorted(set(SCAN_TIMES) | {SCAN_A_TIME})
    checks = []
    for op, ((params, rho0), out) in enumerate(zip(inp["draws"], outputs)):
        decomp = out["decomp"]
        worst_lam = worst_res = 0.0
        for m in trunc.blocks():
            Lb = superops.liouvillian_block(params, trunc, m)
            lams = decomp.eigenvalues[m]
            worst_lam = max(worst_lam, float(np.max(np.abs(np.diag(Lb.entries) - lams))))
            R, L = decomp.R[m].entries, decomp.Lmat[m].entries
            for k, lam in enumerate(lams):
                worst_res = max(worst_res, oracle.right_residual(Lb, lam, R[:, k]),
                                oracle.left_residual(Lb, lam, L[k, :]))
        checks.append(Check(op, "eigenvalues", worst_lam, EIGENVALUE_TOL))
        checks.append(Check(op, "eigenvector residuals", worst_res, RESIDUAL_TOL))
        refs = dict(zip(times, (r[0] for r in _reference_states(params, trunc,
                                                                [rho0.entries], times))))
        dev = max(_state_dev(s, refs[t]) for s, t in zip(out["states"], SCAN_TIMES))
        checks.append(Check(op, "propagation", dev, PROPAGATION_TOL))
        if out["a_factors"] is not None:
            dev = _rel(_a_factor_expect(out["a_factors"], rho0.entries),
                       _expect_a(refs[SCAN_A_TIME]))
            checks.append(Check(op, "a-factor duality", dev, PROPAGATION_TOL))
    return checks


# --------------------------------------------------------------------------
# noise_grid: the Z(J) grid path of run_noise, one run doubling its grid


GRID_NMAX = 12
#: (t, J_max, N_J): the first doubles its J grid once, the second does not
GRID_RUNS = ((5.0, 8.0, 65), (20.0, 8.0, 129))
#: Z nodes re-derived by the exponential backend, on the t = 5 run only: at
#: t = 20 one node costs ~2 s and Z is below 1e-6 beyond J = 3
GRID_NODE_CHECKS = 2
GRID_NODE_RANGE = 16


def exact_vacuum_variance(params: ModelParams, t: float) -> float:
    """var x(t) from the vacuum: 2 Re (e^{lt} - 1 - lt) / l^2, l = -i omega - kappa1/2.

    Only block m = +-1, k = 0 is visited, and its eigenvalue has no U or
    kappa2 term, so this holds for both acceptance channels.
    """
    lam = -1j * params.omega - 0.5 * params.kappa1
    return float(2.0 * ((np.exp(lam * t) - 1.0 - lam * t) / lam**2).real)


def noise_grid_inputs(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    trunc = Truncation(GRID_NMAX)
    # the seed only picks which grid nodes J = i dJ, 1 <= i <= 16, are
    # re-derived by the exponential backend; the channel and grids are fixed
    first = rng.choice(np.arange(1, GRID_NODE_RANGE + 1), GRID_NODE_CHECKS, replace=False)
    nodes = [sorted(int(i) for i in first), []]
    return {"params": NONLINEAR, "vacuum": FockState.vacuum(trunc), "check_nodes": nodes}


def noise_grid_ops(inp: dict) -> list:
    return [
        (f"run_noise t={t:g} J_max={j_max:g} N_J={n_j}",
         lambda t=t, j_max=j_max, n_j=n_j: noise.run_noise(
             inp["params"], inp["vacuum"], t, J_max=j_max, N_J=n_j))
        for t, j_max, n_j in GRID_RUNS
    ]


def noise_grid_checks(inp: dict, outputs: list) -> list[Check]:
    params, vac = inp["params"], inp["vacuum"]
    checks = []
    for op, (run, nodes) in enumerate(zip(outputs, inp["check_nodes"])):
        mass = float(np.trapezoid(run.P_values, run.x_grid))
        checks.append(Check(op, "P mass", abs(mass - 1.0), MASS_TOL))
        mP = run.moments
        kurt_P = (mP[3] - 3 * mP[1] ** 2) / mP[1] ** 2
        checks.append(Check(op, "kurtosis routes", abs(kurt_P - run.excess_kurtosis),
                            KURTOSIS_TOL))
        exact = exact_vacuum_variance(params, run.t)
        checks.append(Check(op, "exact variance", abs(run.cumulants[1] - exact) / exact,
                            MOMENT_TOL))
        if nodes:
            # J = i dJ sits at index zero + i of every grid, doubled or not
            zero = len(run.J_grid) // 2
            dev = max(abs(run.Z_values[zero + i] - noise.xi_evolve(
                params, run.J_grid[zero + i], run.t, vac, backend="expm").trace())
                for i in nodes)
            checks.append(Check(op, "Z nodes vs expm", dev, PROPAGATION_TOL))
    return checks


# --------------------------------------------------------------------------
# noise_moments: finite-difference cumulants and the correlator quadrature


MOMENT_TIMES = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
#: (channel name, n_max) of the cumulant traces; LINEAR at 40 takes the
#: expm backend, NONLINEAR at 14 the eig backend
CUMULANT_RUNS = (("LINEAR", 40), ("NONLINEAR", 14))
#: (channel name, n_max, t) of the correlator quadratures, orders 1 and 2
QUADRATURE_RUNS = (("LINEAR", 16, 0.5), ("LINEAR", 16, 2.0), ("NONLINEAR", 10, 0.5))
QUADRATURE_NODES = 8


def noise_moments_inputs(seed: int) -> dict:
    # nothing here depends on the seed: the channels are the acceptance ones
    return {"channels": {"LINEAR": LINEAR, "NONLINEAR": NONLINEAR}}


def noise_moments_ops(inp: dict) -> list:
    ch = inp["channels"]
    ops = [
        (f"cumulant_trace {name} n_max={n}",
         lambda p=ch[name], n=n: noise.cumulant_trace(p, FockState.vacuum(Truncation(n)),
                                                      MOMENT_TIMES))
        for name, n in CUMULANT_RUNS
    ]
    for name, n, t in QUADRATURE_RUNS:
        for order in (1, 2):
            ops.append((f"quadrature {name} n_max={n} t={t:g} order={order}",
                        lambda p=ch[name], n=n, t=t, order=order:
                        noise.moment_by_correlator_quadrature(
                            p, FockState.vacuum(Truncation(n)), t, order,
                            nodes=QUADRATURE_NODES)))
    return ops


def _phenomenology_margin(kurts) -> float:
    """0 when criterion 10's nonlinear shape holds, else the size of the miss:
    final |kurtosis| below 0.35, an interior peak, transient >= 3.5 x final."""
    kurts = [abs(k) for k in kurts]
    final, transient = kurts[-1], max(kurts[:-1])
    peak = int(np.argmax(kurts))
    miss = max(0.0, final - 0.35) + max(0.0, 3.5 * final - transient)
    if not (0 < peak < len(kurts) - 1 and kurts[peak] > kurts[0]):
        miss += 1.0
    return miss


def noise_moments_checks(inp: dict, outputs: list) -> list[Check]:
    ch = inp["channels"]
    checks = []
    traces = {}
    for op, ((name, _), trace) in enumerate(zip(CUMULANT_RUNS, outputs)):
        traces[name] = {row["t"]: row for row in trace}
        dev = max(abs(row["cumulants"][1] - exact_vacuum_variance(ch[name], row["t"]))
                  / exact_vacuum_variance(ch[name], row["t"]) for row in trace)
        checks.append(Check(op, "exact variance", dev, MOMENT_TOL))
        if name == "LINEAR":
            dev = max(abs(row["excess_kurtosis"]) for row in trace)
            checks.append(Check(op, "linear kurtosis", dev, KURTOSIS_TOL))
        else:
            checks.append(Check(op, "nonlinear kurtosis shape",
                                _phenomenology_margin([r["excess_kurtosis"] for r in trace]),
                                0.0))
    op = len(CUMULANT_RUNS)
    for name, _, t in QUADRATURE_RUNS:
        kappa = traces[name][t]["cumulants"]
        moments = (kappa[0], kappa[1] + kappa[0] ** 2)
        for m in moments:
            # criterion 9 normalises by max(|m|, 1e-9)
            dev = abs(outputs[op] - m) / max(abs(m), 1e-9)
            checks.append(Check(op, "moment duality", dev, MOMENT_TOL))
            op += 1
    return checks


WORKLOADS = {
    "evolve_warm": (evolve_warm_inputs, evolve_warm_ops, evolve_warm_checks),
    "scan_cold": (scan_cold_inputs, scan_cold_ops, scan_cold_checks),
    "noise_grid": (noise_grid_inputs, noise_grid_ops, noise_grid_checks),
    "noise_moments": (noise_moments_inputs, noise_moments_ops, noise_moments_checks),
}

#: checks that are shape conditions, not deviations; they gate pass/fail
#: but do not enter accuracy_digits
SHAPE_CHECKS = {"nonlinear kurtosis shape"}


def accuracy_digits(checks: list[Check]) -> float:
    """-log10 of the worst deviation among the checks (floored at 1e-17)."""
    worst = max(c.deviation for c in checks if c.name not in SHAPE_CHECKS)
    return -math.log10(max(worst, 1e-17))
