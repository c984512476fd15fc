"""Exact time evolution from the spectral solution.

The closed form holds one factorization per block,
T_m(t) = R_m e^{Lambda_m t} L_m, whose eigenvector entries come from
:class:`~kerrloss.spectral.EigenvectorBuilder` (at kappa2 = 0 its
Gaussian-limit blocks); propagation, the Heisenberg picture and the a-factor
rows are products with it.  Spectral propagation through an assembled
eigendecomposition is the second route, and the scalar double sum
:func:`g_coefficient` of the propagator coefficients G_{r,k}^(m)(t), summed
in double precision, stays as the paper's formula that checks the
factorization.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .fockbasis import BlockVector, FockState, Truncation, from_blocks, to_blocks
from .spectral import EigenvectorBuilder, SpectralDecomposition, eigenvalue, x_parameter
from .specfun import double_factorial, hyp2f1_terminating
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

def g_coefficient(params: ModelParams, m: int, k: int, r: int, t: float) -> complex:
    """Propagator coefficient G_{r,k}^(m)(t) as the terminating double-2F1 sum."""
    if params.kappa2 <= 0:
        raise ValueError("G coefficients require kappa2 > 0; use spectral_propagate")
    if r < 0:
        raise ValueError("r must be non-negative")
    eta = params.kappa1 / params.kappa2
    total = 0.0 + 0j
    for j in range(r + 1):
        x = x_parameter(params, m, k + j)
        lam = eigenvalue(params, m, k + j)
        total += (
            (-1) ** j
            * math.comb(r, j)
            * np.exp(lam * t)
            * hyp2f1_terminating(j, 1 - x, 2 - 2 * x - eta, 2.0)
            * hyp2f1_terminating(r - j, x, 2 * x + eta, 2.0)
        )
    return total


class PropagatorCoefficients:
    """Per-block factorization T_m(t) = R_m e^{Lambda_m t} L_m of the propagator.

    Column k of R_m and row k of L_m are the right and left eigenvectors of
    mode (m, k); at kappa2 > 0, (R_m e^{Lambda_m t} L_m)[k, q] is
    sqrt(C(q+|m|, k+|m|) C(q, k)) G_{q-k,k}^(m)(t) term by term.  Blocks m
    and -m are built together on first use and kept, so memory depends on
    n_max only, not on the number of times asked for.
    """

    def __init__(self, params: ModelParams, trunc: Truncation):
        self.params = params
        self.truncation = trunc
        self._factors: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @cached_property
    def _builder(self) -> EigenvectorBuilder:
        return EigenvectorBuilder(self.params, self.truncation)

    def factors(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lambda, R, L) of block m."""
        if m not in self._factors:
            R, L = self._builder.block(abs(m))
            for mm in {m, -m}:
                lam = np.array([eigenvalue(self.params, mm, k) for k in range(len(R))])
                self._factors[mm] = (lam, R, L) if mm >= 0 else (lam, R.conj(), L.conj())
        return self._factors[m]

    def block_matrix(self, m: int, t: float) -> np.ndarray:
        """T with coeffs_k(t) = sum_q T[k, q] coeffs_q(0) on block m."""
        lam, R, L = self.factors(m)
        return (R * np.exp(lam * t)) @ L


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
    """Heisenberg-picture operator O^H(t) = e^{L'^dag t} O in the phi basis.

    Block m of O^H(t) is block_matrix(-m, t)^T applied to block m of O.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    trunc = observable.truncation
    if coeffs is None:
        coeffs = PropagatorCoefficients(params, trunc)
    blocks = to_blocks(observable)
    out = {
        m: BlockVector(m, coeffs.block_matrix(-m, t).T @ v.coeffs) for m, v in blocks.items()
    }
    state = from_blocks(out, trunc)
    state.hermitian = observable.hermitian
    return state


def heisenberg_a_factor(
    params: ModelParams, trunc: Truncation, k: int, t: float,
    coeffs: PropagatorCoefficients | None = None,
) -> complex:
    """Row-k scaling of a^H(t): sum_q binom(k, q) G_{k-q,q}^(1)(t).

    binom(k, q) G = sqrt((q+1)/(k+1)) T_1[q, k] with T_1 the block-1 propagator;
    only rows q <= k of its column k are formed.
    """
    if coeffs is None:
        coeffs = PropagatorCoefficients(params, trunc)
    lam, R, L = coeffs.factors(1)
    q = np.arange(k + 1)
    column = (R[: k + 1] * np.exp(lam * t)) @ L[:, k]
    return complex(np.sqrt((q + 1) / (k + 1)) @ column)


def simaan_g(m: int, k: int, r: int, t: float, kappa2: float) -> complex:
    """Pure two-body-loss propagator coefficient g_{r,k}^(m)(t) (m >= 0).

    Equals G_{2r,k}^(m)(t) of the general solution at omega = U = kappa1 = 0.
    The shared zero of the (y - 1/2) numerator and the q = j factor of the
    rising-factorial denominator is cancelled algebraically.
    """
    if m < 0:
        raise ValueError("the reference formula is stated for m >= 0")
    prefactor = double_factorial(2 * r - 1) / 2**r
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
