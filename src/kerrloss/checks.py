"""The acceptance checks of the closed forms, computed in one place.

One function per acceptance criterion 1-7 and 11 runs that criterion on its
pinned data (seeds, cutoffs, draws, block lists and times) and returns its
named worst deviations.  ``tests/test_acceptance.py`` asserts each of them
against its own pinned literal; ``kerrloss verify`` runs :func:`registry`
and compares every name with :data:`TOLERANCES`, which mirrors those
asserts.  The weak-symmetry check runs in verify only, on a state drawn
from the run's seed.
"""

from __future__ import annotations

import operator
from functools import partial

import numpy as np

from . import evolution, oracle, spectral, superops
from .fockbasis import FockState, Truncation
from .spectral import CaseTag
from .superops import ModelParams

__all__ = ["TOLERANCES", "seeded_draws", "registry", "run"]

#: name -> (comparison, bound), as each is asserted in tests/test_acceptance.py
TOLERANCES = {
    "eigenvalues": ("<", 1e-12),
    "eigenvector_residuals": ("<", 1e-9),
    "biorthonormality": ("<", 1e-9),
    "completeness": ("<", 1e-8),
    "F_inverse_theorem": ("<", 1e-10),
    "F_diagonalization_offdiag": ("<", 1e-9),
    "similarity_identities": ("<", 1e-12),
    "transformed_block": ("<=", 1e-12),
    "transformed_bandwidth": ("<=", 1),
    "c_superdiagonal": ("<=", 1e-12),
    "propagation_vs_oracle": ("<", 1e-6),
    "two_body_loss_odd_vanishing": ("<", 1e-12),
    "two_body_loss_factorial_form": ("<", 1e-10),
    "heisenberg_duality": ("<", 1e-8),
    "a_sparsity": ("==", 0),
    "a_factor_rows": ("<", 1e-9),
    "weak_symmetry_commutator": ("<", 1e-12),
}

_COMPARE = {"<": operator.lt, "<=": operator.le, "==": operator.eq}


def seeded_draws(case: CaseTag, count: int, seed: int):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        omega, U = rng.uniform(-1.0, 1.0, 2)
        k1, k2 = rng.uniform(0.1, 2.0, 2)
        if case == CaseTag.GENERIC_RATIO:
            out.append(ModelParams(omega, U, k1, k2))
        elif case == CaseTag.INTEGER_RATIO:
            out.append(ModelParams(omega, U, float(rng.integers(1, 4)) * k2, k2))
        elif case == CaseTag.ZERO_KAPPA1:
            out.append(ModelParams(omega, U, 0.0, k2))
        elif case == CaseTag.ZERO_KAPPA2:
            out.append(ModelParams(omega, U, k1, 0.0))
        else:
            out.append(ModelParams(omega, U, 0.0, 0.0, allow_unitary=True))
    return out


def _flip_superdiagonal(mat: np.ndarray) -> None:
    idx = np.arange(mat.shape[0] - 1)
    mat[idx, idx + 1] *= -1.0


def eigenvalue_exactness() -> dict:
    """Criterion 1: closed-form eigenvalues against the oracle block diagonals."""
    trunc = Truncation(12)
    worst = 0.0
    for case in CaseTag:
        for params in seeded_draws(case, 5, seed=101):
            blocks = superops.liouvillian_blocks(params, trunc)
            for m in (-4, -1, 0, 2, 5):
                diag = np.diag(blocks[m].entries)
                lams = spectral.eigenvalue(params, m, np.arange(trunc.block_size(m)))
                worst = max(worst, float(np.max(np.abs(diag - lams))))
    return {"eigenvalues": worst}


def eigenvector_residuals(fault: bool = False) -> dict:
    """Criterion 2: right/left eigenvector residuals in the oracle blocks.

    ``fault`` flips the superdiagonal sign of every oracle block, so the
    residuals must blow up.
    """
    trunc = Truncation(10)
    worst = 0.0
    for case in CaseTag:
        params = seeded_draws(case, 1, seed=202)[0]
        coeffs = spectral.PropagatorCoefficients(params, trunc)
        blocks = superops.liouvillian_blocks(params, trunc)
        for m in (0, 1, -2, 3):
            Lb = blocks[m]
            if fault:
                _flip_superdiagonal(Lb.entries)
            _, R, L = coeffs.factors(m)
            for k in range(trunc.block_size(m)):
                lam = spectral.eigenvalue(params, m, k)
                worst = max(
                    worst,
                    oracle.right_residual(Lb, lam, R[:, k]),
                    oracle.left_residual(Lb, lam, L[k]),
                )
    return {"eigenvector_residuals": worst}


def biorthonormality_completeness() -> dict:
    """Criterion 3: L R = I on every block, R L = I on truncation-safe indices."""
    trunc = Truncation(16)
    worst_bi = worst_comp = 0.0
    cases = [
        seeded_draws(CaseTag.GENERIC_RATIO, 2, seed=303)[0],
        seeded_draws(CaseTag.GENERIC_RATIO, 2, seed=303)[1],
        ModelParams(1.0, 0.5, 0.0, 1.0),
        ModelParams(1.0, 0.5, 0.8, 0.0),
    ]
    for params in cases:
        coeffs = spectral.PropagatorCoefficients(params, trunc)
        for m in trunc.blocks():
            _, R, L = coeffs.factors(m)
            worst_bi = max(worst_bi, float(np.max(np.abs(L @ R - np.eye(len(R))))))
            safe = trunc.block_bound(m) - 2 + 1  # indices up to K(m) - 2, clear of the cutoff
            if safe > 0:
                comp = R[:safe, :] @ L[:, :safe]
                worst_comp = max(worst_comp, float(np.max(np.abs(comp - np.eye(safe)))))
    return {"biorthonormality": worst_bi, "completeness": worst_comp}


def inverse_theorem(fault: bool = False) -> dict:
    """Criterion 4: F F^-1 = I and F T F^-1 diagonal for the transformed block T.

    ``fault`` flips the superdiagonal sign of every T, so the off-diagonal
    part must blow up.
    """
    trunc = Truncation(10)
    worst_inv = worst_diag = 0.0
    for params in seeded_draws(CaseTag.GENERIC_RATIO, 3, seed=404):
        for m in (0, 1, -2, 3):
            F = spectral.F_matrix(params, trunc, m, "forward")
            Fi = spectral.F_matrix(params, trunc, m, "inverse")
            size = F.shape[0]
            worst_inv = max(worst_inv, float(np.max(np.abs(F @ Fi - np.eye(size)))))
            worst_inv = max(worst_inv, float(np.max(np.abs(Fi @ F - np.eye(size)))))
            T = superops.transformed_block(params, trunc, m).entries
            if fault:
                _flip_superdiagonal(T)
            D = F @ T @ Fi
            off = D - np.diag(np.diag(D))
            worst_diag = max(worst_diag, float(np.max(np.abs(off))))
    return {"F_inverse_theorem": worst_inv, "F_diagonalization_offdiag": worst_diag}


def similarity_identities() -> dict:
    """Criterion 5: the e^A conjugation identities and the bidiagonal form.

    The bidiagonal figures are read from the conjugated operator-algebra
    block C = e^A L_m e^{-A} (:func:`~kerrloss.superops.conjugated_block`),
    with scale = max(1, max|C|): ``transformed_block`` is
    max|C - T| / scale for the closed-form block T, diagonal and zeros
    included; ``transformed_bandwidth`` the upper bandwidth of C, counting
    entries above 1e-12 scale as nonzero (the conjugation leaves rounding
    residue, measured <= 2.6e-13 scale, where the exact block is zero); and
    ``c_superdiagonal`` the largest per-entry |C[k-1, k] - c_k| / max(1, |c_k|)
    against the closed form c_k.
    """
    trunc = Truncation(10)
    params = seeded_draws(CaseTag.GENERIC_RATIO, 1, seed=505)[0]
    worst = worst_block = worst_c = 0.0
    bandwidth = 0
    for m in (0, 1, -1, 3):
        report = superops.similarity_identity_suite(params, trunc, m)
        worst = max(worst, *report.values())
        C = superops.conjugated_block(params, trunc, m)
        scale = max(1.0, float(np.max(np.abs(C))))
        T = superops.transformed_block(params, trunc, m).entries
        worst_block = max(worst_block, float(np.max(np.abs(C - T))) / scale)
        bandwidth = max(bandwidth, superops.measured_upper_bandwidth(np.abs(C) > 1e-12 * scale))
        for k in range(1, C.shape[0]):
            c = superops.c_superdiagonal(params, m, k)
            worst_c = max(worst_c, float(abs(C[k - 1, k] - c) / max(1.0, abs(c))))
    return {
        "similarity_identities": worst,
        "transformed_block": worst_block,
        "transformed_bandwidth": bandwidth,
        "c_superdiagonal": worst_c,
    }


def propagation_equivalence() -> dict:
    """Criterion 6: both closed-form routes against the ODE oracle, relative.

    ``propagate_phi`` applies the eigenvector factors R_m e^{Lambda_m t} L_m;
    ``similarity_propagate`` applies e^{-A} e^{T_m t} e^{A} with the
    bidiagonal closed form T_m and no eigenvector.  The independent side is
    :func:`~kerrloss.oracle.ode_propagate` on the operator-level generator.
    """
    trunc = Truncation(8)
    rng = np.random.default_rng(606)
    X = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    hermitian = FockState(X @ X.conj().T / np.trace(X @ X.conj().T).real, hermitian=True)
    coherent = FockState.coherent(trunc, 0.8)
    worst = 0.0
    for params in (
        seeded_draws(CaseTag.GENERIC_RATIO, 1, seed=606)[0],
        ModelParams(1.0, 0.5, 0.0, 1.0),
    ):
        gen = superops.full_generator(params, trunc)
        for rho0 in (coherent, hermitian):
            for kt in (0.1, 1.0, 5.0):
                t = kt / params.kappa2
                ref = oracle.ode_propagate(gen, rho0, t)
                scale = float(np.max(np.abs(ref.entries)))
                a = evolution.propagate_phi(params, rho0, t)
                b = evolution.similarity_propagate(params, rho0, t)
                worst = max(
                    worst,
                    float(np.max(np.abs(a.entries - ref.entries))) / scale,
                    float(np.max(np.abs(b.entries - ref.entries))) / scale,
                )
    return {"propagation_vs_oracle": worst}


def pure_loss_consistency() -> dict:
    """Criterion 7: at pure two-body loss odd G orders vanish and even ones
    take the factorial form."""
    p2 = ModelParams(0.0, 0.0, 0.0, 1.0)
    worst_odd = worst_match = 0.0
    for t in (0.1, 0.5, 2.0):
        for m in range(5):
            for k in range(7):
                for r in range(7):
                    if r % 2 == 1:
                        worst_odd = max(
                            worst_odd, abs(evolution.g_coefficient(p2, m, k, r, t))
                        )
                    worst_match = max(
                        worst_match,
                        abs(
                            evolution.g_coefficient(p2, m, k, 2 * r, t)
                            - evolution.simaan_g(m, k, r, t, 1.0)
                        ),
                    )
    return {"two_body_loss_odd_vanishing": worst_odd, "two_body_loss_factorial_form": worst_match}


def heisenberg_duality_and_a_structure() -> dict:
    """Criterion 11: Schrodinger/Heisenberg duality, and a(t) keeps the
    sparsity of a with the closed-form row factors.

    ``a_sparsity`` is the largest |a(t)| entry off the superdiagonal.
    """
    trunc = Truncation(9)
    params = seeded_draws(CaseTag.GENERIC_RATIO, 1, seed=111)[0]
    rho0 = FockState.coherent(trunc, 0.6)
    obs = FockState(np.diag(np.arange(trunc.dim, dtype=complex)), hermitian=True)
    worst_dual = 0.0
    for t in (0.3, 1.5):
        sched = np.trace(evolution.propagate_phi(params, rho0, t).entries @ obs.entries)
        heis = np.trace(evolution.heisenberg_phi(params, obs, t).entries @ rho0.entries)
        worst_dual = max(worst_dual, abs(sched - heis))

    a_op = FockState(superops.annihilation(trunc))
    coeffs = evolution.PropagatorCoefficients(params, trunc)
    worst_sparse = worst_fac = 0.0
    for t in (0.2, 0.8):
        aH = evolution.heisenberg_phi(params, a_op, t, coeffs)
        mask = np.ones_like(aH.entries, dtype=bool)
        idx = np.arange(trunc.dim - 1)
        mask[idx, idx + 1] = False
        worst_sparse = max(worst_sparse, float(np.max(np.abs(aH.entries[mask]))))
        f = evolution.heisenberg_a_factors(params, trunc, t, coeffs)
        k = np.arange(trunc.n_max)
        worst_fac = max(worst_fac, float(np.max(np.abs(aH.entries[k, k + 1] - f * np.sqrt(k + 1)))))
    return {"heisenberg_duality": worst_dual, "a_sparsity": worst_sparse, "a_factor_rows": worst_fac}


def weak_symmetry(seed: int) -> dict:
    """L commutes with the number commutator on a state drawn from ``seed``."""
    params = ModelParams(0.9, 0.6, 0.37, 1.1)
    gen = superops.full_generator(params, Truncation(10))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(11, 11)) + 1j * rng.normal(size=(11, 11))
    Nmat = np.diag(np.arange(11.0))
    lhs = gen.apply(Nmat @ X - X @ Nmat)
    rhs = Nmat @ gen.apply(X) - gen.apply(X) @ Nmat
    return {"weak_symmetry_commutator": np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs))}


def registry(seed: int = 0, fault: bool = False) -> tuple:
    """The checks in criterion order; ``fault`` perturbs criteria 2 and 4."""
    return (
        eigenvalue_exactness,
        partial(eigenvector_residuals, fault=fault),
        biorthonormality_completeness,
        partial(inverse_theorem, fault=fault),
        similarity_identities,
        propagation_equivalence,
        pure_loss_consistency,
        heisenberg_duality_and_a_structure,
        partial(weak_symmetry, seed),
    )


def run(seed: int = 0, fault: bool = False) -> list[dict]:
    """Every registry check as a verify.json entry, in registry order."""
    entries = []
    for check in registry(seed, fault):
        for name, dev in check().items():
            comparison, bound = TOLERANCES[name]
            entries.append({
                "check": name,
                "max_dev": float(dev),
                "tolerance": bound,
                "pass": bool(_COMPARE[comparison](dev, bound)),
            })
    return entries
