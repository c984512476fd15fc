"""Exact time evolution from the spectral solution.

Two equivalent routes are provided: propagation by the closed-form
propagator coefficients G_{r,k}^(m)(t) in the phi basis (kappa2 > 0), and
spectral propagation through an assembled eigendecomposition.  At
kappa2 = 0 the x-parameters are singular and the G route dispatches to the
spectral one built from the Gaussian-limit eigenvectors.
"""

from __future__ import annotations

import math

import numpy as np

from .fockbasis import BlockVector, FockState, Truncation, from_blocks, to_blocks
from .spectral import SpectralDecomposition, decompose, eigenvalue, x_parameter
from .specfun import hyp2f1_terminating, sqrt_binom
from .superops import ModelParams

__all__ = [
    "g_coefficient",
    "PropagatorCoefficients",
    "propagate_phi",
    "spectral_propagate",
    "heisenberg_phi",
    "heisenberg_a_factor",
    "simaan_g",
]

#: |G| below this multiple of eps times the largest intermediate term is
#: cancellation-limited rather than trustworthy
CANCELLATION_FACTOR = 1e3


def g_coefficient(
    params: ModelParams, m: int, k: int, r: int, t: float, diagnostics: bool = False
):
    """Propagator coefficient G_{r,k}^(m)(t) as the terminating double-2F1 sum.

    With ``diagnostics=True`` returns (value, cancellation_limited flag).
    """
    if params.kappa2 <= 0:
        raise ValueError("G coefficients require kappa2 > 0; use spectral_propagate")
    if r < 0:
        raise ValueError("r must be non-negative")
    eta = params.kappa1 / params.kappa2
    total = 0.0 + 0j
    largest = 0.0
    for j in range(r + 1):
        x = x_parameter(params, m, k + j)
        lam = eigenvalue(params, m, k + j)
        term = (
            (-1) ** j
            * math.comb(r, j)
            * np.exp(lam * t)
            * hyp2f1_terminating(j, 1 - x, 2 - 2 * x - eta, 2.0)
            * hyp2f1_terminating(r - j, x, 2 * x + eta, 2.0)
        )
        largest = max(largest, abs(term))
        total += term
    if diagnostics:
        limited = abs(total) < CANCELLATION_FACTOR * np.finfo(float).eps * largest
        return total, limited
    return total


class PropagatorCoefficients:
    """Lazy per-(m, k, r, t) cache of G values for repeated propagations."""

    def __init__(self, params: ModelParams, trunc: Truncation):
        if params.kappa2 <= 0:
            raise ValueError("G coefficients require kappa2 > 0")
        self.params = params
        self.truncation = trunc
        self._cache: dict[tuple, complex] = {}

    def g(self, m: int, k: int, r: int, t: float) -> complex:
        key = (m, k, r, t)
        if key not in self._cache:
            self._cache[key] = g_coefficient(self.params, m, k, r, t)
        return self._cache[key]

    def block_matrix(self, m: int, t: float) -> np.ndarray:
        """T with coeffs_k(t) = sum_q T[k, q] coeffs_q(0) on block m."""
        size = self.truncation.block_size(m)
        am = abs(m)
        T = np.zeros((size, size), dtype=complex)
        for k in range(size):
            for q in range(k, size):
                r = q - k
                T[k, q] = (
                    sqrt_binom(am + q, am + k) * sqrt_binom(q, k) * self.g(m, k, r, t)
                )
        return T


def propagate_phi(
    params: ModelParams,
    initial: FockState,
    t: float,
    coeffs: PropagatorCoefficients | None = None,
) -> FockState:
    """Exact phi-basis solution of the master equation at time t >= 0."""
    if t < 0:
        raise ValueError("t must be non-negative")
    trunc = initial.truncation
    if params.kappa2 == 0:
        return spectral_propagate(decompose(params, trunc), initial, t)
    if coeffs is None:
        coeffs = PropagatorCoefficients(params, trunc)
    blocks = to_blocks(initial)
    out = {
        m: BlockVector(m, coeffs.block_matrix(m, t) @ v.coeffs) for m, v in blocks.items()
    }
    state = from_blocks(out, trunc)
    state.hermitian = initial.hermitian
    return state


def spectral_propagate(decomp: SpectralDecomposition, initial: FockState, t: float) -> FockState:
    """rho(t) = sum_mk b_k^(m) e^{lambda t} rho_k^(m), b from the left vectors."""
    trunc = decomp.truncation
    if initial.n_max != trunc.n_max:
        raise ValueError("state truncation does not match the decomposition")
    blocks = to_blocks(initial)
    out = {}
    for m, v in blocks.items():
        b = decomp.Lmat[m].entries @ v.coeffs
        phases = np.exp(decomp.eigenvalues[m] * t)
        out[m] = BlockVector(m, decomp.R[m].entries @ (phases * b))
    state = from_blocks(out, trunc)
    state.hermitian = initial.hermitian
    return state


def heisenberg_phi(
    params: ModelParams,
    observable: FockState,
    t: float,
    coeffs: PropagatorCoefficients | None = None,
) -> FockState:
    """Heisenberg-picture operator O^H(t) = e^{L'^dag t} O in the phi basis."""
    if t < 0:
        raise ValueError("t must be non-negative")
    trunc = observable.truncation
    if params.kappa2 == 0:
        return _heisenberg_spectral(decompose(params, trunc), observable, t)
    if coeffs is None:
        coeffs = PropagatorCoefficients(params, trunc)
    blocks = to_blocks(observable)
    out = {}
    for m, v in blocks.items():
        size = trunc.block_size(m)
        am = abs(m)
        new = np.zeros(size, dtype=complex)
        for k in range(size):
            acc = 0.0 + 0j
            for q in range(k + 1):
                acc += (
                    sqrt_binom(am + k, am + q)
                    * sqrt_binom(k, q)
                    * coeffs.g(-m, q, k - q, t)
                    * v.coeffs[q]
                )
            new[k] = acc
        out[m] = BlockVector(m, new)
    state = from_blocks(out, trunc)
    state.hermitian = observable.hermitian
    return state


def _heisenberg_spectral(decomp: SpectralDecomposition, observable: FockState, t: float) -> FockState:
    """O^H block m = (R e^{Lam t} L)^dag applied to the block coefficients."""
    trunc = decomp.truncation
    blocks = to_blocks(observable)
    out = {}
    for m, v in blocks.items():
        R = decomp.R[m].entries
        L = decomp.Lmat[m].entries
        phases = np.exp(np.conj(decomp.eigenvalues[m]) * t)
        out[m] = BlockVector(m, L.conj().T @ (phases * (R.conj().T @ v.coeffs)))
    state = from_blocks(out, trunc)
    state.hermitian = observable.hermitian
    return state


def heisenberg_a_factor(
    params: ModelParams, trunc: Truncation, k: int, t: float,
    coeffs: PropagatorCoefficients | None = None,
) -> complex:
    """Row-k scaling of a^H(t): sum_q binom(k, q) G_{k-q,q}^(1)(t)."""
    if coeffs is None:
        coeffs = PropagatorCoefficients(params, trunc)
    return sum(math.comb(k, q) * coeffs.g(1, q, k - q, t) for q in range(k + 1))


def simaan_g(m: int, k: int, r: int, t: float, kappa2: float) -> complex:
    """Pure two-body-loss propagator coefficient g_{r,k}^(m)(t) (m >= 0).

    Equals G_{2r,k}^(m)(t) of the general solution at omega = U = kappa1 = 0.
    The shared zero of the (y - 1/2) numerator and the q = j factor of the
    rising-factorial denominator is cancelled algebraically.
    """
    if m < 0:
        raise ValueError("the reference formula is stated for m >= 0")
    prefactor = _double_factorial(2 * r - 1) / 2**r
    total = 0.0 + 0j
    for j in range(r + 1):
        kk = k + 2 * j
        # decay exponent of the pure-loss mode (k, m); equals the general
        # eigenvalue at omega = U = kappa1 = 0
        mu = -kappa2 * (kk * (kk + m - 1) + m * (m - 1) / 2)
        z0 = kk + m / 2 - j - 0.5  # start of the (r+1)-term rising factorial
        denom = 1.0
        for q in range(r + 1):
            if q == j:
                continue  # cancels against the (y - 1/2) numerator
            denom *= z0 + q
        total += (-1) ** j * math.comb(r, j) * np.exp(mu * t) / denom
    return prefactor * total


def _double_factorial(n: int) -> float:
    from .specfun import double_factorial

    return double_factorial(n)
