"""Closed-form eigenvalues and eigenvectors of the block Liouvillian.

Within block m the eigenvalues are the triangular diagonal,

    lambda_k^(m) = -i(omega - U/2) m - (kappa1 + i U m)(k + |m|/2)
                   - kappa2 [ (k+|m|)(k-1) + |m|(|m|+1)/2 ],

and the eigenvectors are hypergeometric polynomials in the lowering
superoperator A.  The right vectors use the finite sum that is valid for
every non-degenerate mode (it stops before any forbidden denominator),
the left vectors use the confluent series truncated at the block bound.
Parameter-space cases are dispatched through :class:`CaseTag`; the only
true degeneracy (kappa1 = 0, block 0, k in {0, 1}) gets the explicit
parity-based eigenvectors.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from mpmath import mp

from .fockbasis import BlockVector, Truncation
from .specfun import DENOMINATOR_FLOOR, VanishingDenominatorError
from .superops import (
    BlockMatrix,
    InternalConsistencyError,
    ModelParams,
    apply_exp_A,
    block_A_matrix,
)

__all__ = [
    "CaseTag",
    "SpectralDecomposition",
    "classify",
    "eigenvalue",
    "x_parameter",
    "right_eigenvector",
    "right_eigenvector_productform",
    "left_eigenvector",
    "F_matrix",
    "decompose",
    "spectrum_csv",
    "eigenvectors_csv",
]

INTEGER_RATIO_TOL = 1e-9
INTEGER_RATIO_WARN = 1e-6
DEGENERACY_TOL = 1e-10


class CaseTag(Enum):
    GENERIC_RATIO = "generic_ratio"        # kappa1, kappa2 > 0, ratio not a non-negative integer
    INTEGER_RATIO = "integer_ratio"        # kappa1, kappa2 > 0, ratio a positive integer
    ZERO_KAPPA1 = "zero_kappa1"            # kappa1 = 0 < kappa2
    ZERO_KAPPA2 = "zero_kappa2"            # kappa2 = 0 < kappa1 (Gaussian limit)
    HAMILTONIAN_ONLY = "hamiltonian_only"  # kappa1 = kappa2 = 0


def classify(params: ModelParams) -> CaseTag:
    """Deterministic parameter-case tag; tags partition parameter space."""
    k1, k2 = params.kappa1, params.kappa2
    if k1 == 0 and k2 == 0:
        return CaseTag.HAMILTONIAN_ONLY
    if k2 == 0:
        return CaseTag.ZERO_KAPPA2
    ratio = k1 / k2
    nearest = round(ratio)
    gap = abs(ratio - nearest)
    if gap < INTEGER_RATIO_TOL:
        if nearest == 0:
            return CaseTag.ZERO_KAPPA1
        return CaseTag.INTEGER_RATIO
    if gap < INTEGER_RATIO_WARN:
        warnings.warn(
            f"loss-rate ratio {ratio} is within {gap:.1e} of an integer; "
            "series denominators are poorly conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    if k1 == 0:
        return CaseTag.ZERO_KAPPA1
    return CaseTag.GENERIC_RATIO


def eigenvalue(params: ModelParams, m: int, k: int) -> complex:
    am = abs(m)
    return (
        -1j * (params.omega - params.U / 2) * m
        - (params.kappa1 + 1j * params.U * m) * (k + am / 2)
        - params.kappa2 * ((k + am) * (k - 1) + am * (am + 1) / 2)
    )


def x_parameter(params: ModelParams, m: int, k: int) -> complex:
    """(2k+|m|)/2 + i U m / (2 kappa2), the hypergeometric parameter."""
    if params.kappa2 == 0:
        raise ValueError("x-parameter undefined at kappa2 = 0; use the Gaussian-limit path")
    return (2 * k + abs(m)) / 2 + 1j * params.U * m / (2 * params.kappa2)


def _raise_once(coeffs: np.ndarray, am: int) -> np.ndarray:
    """Row-vector action of A from the right: new[p] = sqrt(p(p+|m|)) u[p-1]."""
    out = np.zeros_like(coeffs)
    p = np.arange(1, len(coeffs))
    out[1:] = np.sqrt((p * (p + am)).astype(coeffs.real.dtype)) * coeffs[:-1]
    return out


#: working precision (significant digits) for the eigenvector entries; the
#: series-times-exponential structure cancels by up to ten orders near the
#: truncation edge, so double precision alone leaves ~1e-9 residue there
EIGVEC_DPS = 40


def _x_eta_mp(params: ModelParams, m: int, k: int):
    """x_k^(m) and kappa1/kappa2 as arbitrary-precision scalars."""
    am = abs(m)
    k2 = mp.mpf(params.kappa2)
    x = mp.mpf(2 * k + am) / 2 + mp.mpc(0, 1) * mp.mpf(params.U) * m / (2 * k2)
    eta = mp.mpf(params.kappa1) / k2
    return x, eta


def _hyp2f1_arg2_mp(n: int, b, c, where: str):
    """Terminating 2F1(-n, b; c; 2), zero numerator breaking before the
    denominator is ever touched (the reachable-zone convention)."""
    total = mp.mpc(1)
    term = mp.mpc(1)
    for i in range(1, n + 1):
        num = (b + (i - 1)) * (i - 1 - n)
        if num == 0:
            break
        den = (c + (i - 1)) * i
        if abs(den) < DENOMINATOR_FLOOR:
            raise VanishingDenominatorError(f"{where} denominator vanished at order {i}")
        term *= 2 * num / den
        total += term
    return total


def _is_degenerate_pair(case: CaseTag, m: int, k: int) -> bool:
    return case == CaseTag.ZERO_KAPPA1 and m == 0 and k in (0, 1)


def right_eigenvector(params: ModelParams, trunc: Truncation, m: int, k: int) -> BlockVector:
    """Right eigenvector of block m for eigenvalue lambda_k^(m), phi_k coefficient 1."""
    size = trunc.block_size(m)
    if not 0 <= k < size:
        raise ValueError("mode index outside truncation")
    case = classify(params)
    unit = np.zeros(size, dtype=complex)
    unit[k] = 1.0
    if case == CaseTag.HAMILTONIAN_ONLY:
        return BlockVector(m, unit)
    if case == CaseTag.ZERO_KAPPA2:
        scale = 1.0 / (1.0 + 1j * m * params.U / params.kappa1)
        return apply_exp_A(BlockVector(m, unit), trunc, -scale)
    if _is_degenerate_pair(case, m, k):
        # explicit orthonormal choice: rho_0 = |0><0|, rho_1 = |1><1|
        return BlockVector(m, unit)

    # closed-form entries: the polynomial part composed with e^{-A} collapses
    # to one terminating 2F1 at argument 2 per component, times the exact
    # square-root ladder product from k down to p
    am = abs(m)
    coeffs = np.zeros(size, dtype=complex)
    coeffs[k] = 1.0
    with mp.workdps(EIGVEC_DPS):
        x, eta = _x_eta_mp(params, m, k)
        ladder = 1
        for p in range(k - 1, -1, -1):
            ladder *= (p + 1) * (p + 1 + am)
            n = k - p
            hyp = _hyp2f1_arg2_mp(
                n, 1 - x, 2 - 2 * x - eta, f"right-eigenvector (m,k,p)=({m},{k},{p})"
            )
            val = mp.sqrt(ladder) * (-1) ** n / mp.factorial(n) * hyp
            coeffs[p] = complex(val)
    return BlockVector(m, coeffs)


def right_eigenvector_productform(
    params: ModelParams, trunc: Truncation, m: int, k: int
) -> BlockVector:
    """Independent construction of the right eigenvector via eigenvalue-gap products."""
    from .superops import c_superdiagonal

    size = trunc.block_size(m)
    lam_k = eigenvalue(params, m, k)
    summed = np.zeros(size, dtype=np.clongdouble)
    summed[k] = 1.0
    prod = np.clongdouble(1.0)
    for p in range(k - 1, -1, -1):
        gap = lam_k - eigenvalue(params, m, p)
        if gap == 0:
            raise ZeroDivisionError(
                f"degenerate eigenvalues lambda_{k} = lambda_{p} in block m={m}"
            )
        prod *= c_superdiagonal(params, m, p + 1) / np.clongdouble(gap)
        summed[p] = prod
    out = apply_exp_A(BlockVector(m, summed), trunc, -1.0)
    return BlockVector(m, out.coeffs.astype(complex))


def left_eigenvector(params: ModelParams, trunc: Truncation, m: int, k: int) -> BlockVector:
    """Left eigenvector (bra coefficients over k') truncated at the block bound."""
    size = trunc.block_size(m)
    if not 0 <= k < size:
        raise ValueError("mode index outside truncation")
    case = classify(params)
    unit = np.zeros(size, dtype=complex)
    unit[k] = 1.0
    if case == CaseTag.HAMILTONIAN_ONLY:
        return BlockVector(m, unit)
    am = abs(m)
    if case == CaseTag.ZERO_KAPPA2:
        scale = 1.0 / (1.0 + 1j * m * params.U / params.kappa1)
        return _exp_raise(BlockVector(m, unit), scale)
    if _is_degenerate_pair(case, m, k):
        # bar rho_0 = parity projector, bar rho_1 = I - parity projector
        coeffs = np.zeros(size, dtype=complex)
        coeffs[k % 2 :: 2] = 1.0
        return BlockVector(m, coeffs)

    # mirror closed form of the right vectors: raising ladder times a
    # terminating 2F1 at argument 2, truncated at the block bound
    coeffs = np.zeros(size, dtype=complex)
    coeffs[k] = 1.0
    with mp.workdps(EIGVEC_DPS):
        x, eta = _x_eta_mp(params, m, k)
        ladder = 1
        for p in range(k + 1, size):
            ladder *= p * (p + am)
            n = p - k
            hyp = _hyp2f1_arg2_mp(
                n, x, 2 * x + eta, f"left-eigenvector (m,k,p)=({m},{k},{p})"
            )
            coeffs[p] = complex(mp.sqrt(ladder) / mp.factorial(n) * hyp)
    return BlockVector(m, coeffs)


def _exp_raise(v: BlockVector, scale: complex) -> BlockVector:
    """Row-vector e^{scale A} from the right (raising), exact nilpotent series."""
    am = abs(v.m)
    out = v.coeffs.copy()
    term = v.coeffs.copy()
    for j in range(1, len(out)):
        term = scale * _raise_once(term, am) / j
        if not term.any():
            break
        out += term
    return BlockVector(v.m, out)


def F_matrix(params: ModelParams, trunc: Truncation, m: int, direction: str) -> np.ndarray:
    """Block matrix of the hypergeometric map F (forward) or its inverse.

    Forward places the rising-factorial diagonal coefficients to the left of
    the A powers, the inverse to the right; A and the x-diagonal do not
    commute, so the order matters.
    """
    if classify(params) not in (CaseTag.GENERIC_RATIO,):
        raise ValueError("F and its inverse require the generic-ratio case")
    size = trunc.block_size(m)
    x = np.array([x_parameter(params, m, k) for k in range(size)])
    eta = params.kappa1 / params.kappa2
    A = block_A_matrix(trunc, m)
    out = np.eye(size, dtype=complex)
    Apow = np.eye(size, dtype=complex)
    diag = np.ones(size, dtype=complex)
    for j in range(1, size):
        if direction == "forward":
            num, den = x + (j - 1), 2 * x + eta + (j - 1)
            z = -2.0
        elif direction == "inverse":
            num, den = 1 - x + (j - 1), 2 - (2 * x + eta) + (j - 1)
            z = 2.0
        else:
            raise ValueError("direction must be 'forward' or 'inverse'")
        if np.any(np.abs(den) < DENOMINATOR_FLOOR):
            raise VanishingDenominatorError(
                f"F {direction} denominator vanished at order {j} in block m={m}"
            )
        diag = diag * num / den
        Apow = Apow @ (z * A) / j
        if direction == "forward":
            out += diag[:, None] * Apow
        else:
            out += Apow * diag[None, :]
    return out


@dataclass
class SpectralDecomposition:
    """Per-block eigenvalues with right/left eigenvector matrices.

    Column k of ``R[m]`` holds the right eigenvector in phi coordinates;
    row k of ``Lmat[m]`` the left one.  ``safe_bound[m]`` is the index up to
    which completeness is asserted (two below the block bound, keeping clear
    of truncation-edge usage).
    """

    params: ModelParams
    truncation: Truncation
    case: CaseTag
    eigenvalues: dict[int, np.ndarray] = field(default_factory=dict)
    R: dict[int, BlockMatrix] = field(default_factory=dict)
    Lmat: dict[int, BlockMatrix] = field(default_factory=dict)
    degenerate_modes: tuple = ()

    def safe_bound(self, m: int) -> int:
        return self.truncation.block_bound(m) - 2


def _degeneracy_scan(params: ModelParams, trunc: Truncation, case: CaseTag) -> tuple:
    """Exhaustive eigenvalue-collision scan; must match the analytic criterion."""
    found = []
    for m in trunc.blocks():
        lams = np.array([eigenvalue(params, m, k) for k in range(trunc.block_size(m))])
        scale = max(1.0, float(np.max(np.abs(lams))))
        for k in range(len(lams)):
            for q in range(k + 1, len(lams)):
                if abs(lams[k] - lams[q]) < DEGENERACY_TOL * scale:
                    found.append((m, k, q))
    expected = [(0, 0, 1)] if case == CaseTag.ZERO_KAPPA1 else []
    if found != expected:
        raise InternalConsistencyError(
            f"degeneracy scan found {found}, expected {expected} for case {case}"
        )
    return tuple(found)


def decompose(params: ModelParams, trunc: Truncation) -> SpectralDecomposition:
    """Assemble the complete truncated eigensystem with case dispatch."""
    case = classify(params)
    decomp = SpectralDecomposition(params=params, truncation=trunc, case=case)
    if case != CaseTag.HAMILTONIAN_ONLY:
        decomp.degenerate_modes = _degeneracy_scan(params, trunc, case)
    for m in trunc.blocks():
        size = trunc.block_size(m)
        lams = np.array([eigenvalue(params, m, k) for k in range(size)])
        R = np.empty((size, size), dtype=complex)
        L = np.empty((size, size), dtype=complex)
        for k in range(size):
            R[:, k] = right_eigenvector(params, trunc, m, k).coeffs
            L[k, :] = left_eigenvector(params, trunc, m, k).coeffs
        decomp.eigenvalues[m] = lams
        decomp.R[m] = BlockMatrix(m, R)
        decomp.Lmat[m] = BlockMatrix(m, L)
    return decomp


def spectrum_csv(decomp: SpectralDecomposition) -> str:
    buf = io.StringIO()
    buf.write("m,k,re_lambda,im_lambda\n")
    for m in decomp.truncation.blocks():
        for k, lam in enumerate(decomp.eigenvalues[m]):
            buf.write(f"{m},{k},{lam.real:.17g},{lam.imag:.17g}\n")
    return buf.getvalue()


def eigenvectors_csv(decomp: SpectralDecomposition) -> str:
    buf = io.StringIO()
    buf.write("m,k,p,re,im,side\n")
    for m in decomp.truncation.blocks():
        R = decomp.R[m].entries
        L = decomp.Lmat[m].entries
        size = R.shape[0]
        for k in range(size):
            for p in range(size):
                if R[p, k] != 0:
                    buf.write(f"{m},{k},{p},{R[p, k].real:.17g},{R[p, k].imag:.17g},right\n")
            for p in range(size):
                if L[k, p] != 0:
                    buf.write(f"{m},{k},{p},{L[k, p].real:.17g},{L[k, p].imag:.17g},left\n")
    return buf.getvalue()
