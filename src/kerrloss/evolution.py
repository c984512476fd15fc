"""Exact time evolution from the spectral solution.

The closed form holds one factorization per block,
T_m(t) = R_m e^{Lambda_m t} L_m.  Its factors live in :mod:`kerrloss.spectral`:
:class:`~kerrloss.spectral.PropagatorCoefficients` keeps those of all blocks
in one zero-padded stack, filled by
:class:`~kerrloss.spectral.EigenvectorBuilder`, with Lambda the eigenvalue
table filled at construction; :func:`~kerrloss.spectral.decompose` copies
R and L out of the same stack.
Propagation gathers every block diagonal of the matrix with one index, keeps
the rows of the blocks the operand occupies (one ``any`` per row), hands them
to :meth:`~kerrloss.spectral.PropagatorCoefficients.apply`, which builds the
factors of those blocks only, and scatters the result back: at kappa2 > 0 it
applies L_m, e^{Lambda_m t} and R_m in turn, two batched matrix-vector
products that never form T_m(t); at kappa2 = 0 it applies the damped-Kerr
product form, which builds no eigenvectors.  An operand that occupies every
block (a coherent or mixed state) takes the same path, its stack read whole.
The Heisenberg picture reads block -m transposed for block m, and the
a-factor rows are one row-vector product with block 1.
:func:`similarity_propagate` is the second route, from the paper's other
ingredient: the bidiagonal T_m = e^A L_m e^{-A}, exponentiated block by
block, with no eigenvector.  The scalar double sum :func:`g_coefficient` of
the propagator coefficients G_{r,k}^(m)(t), summed in double precision,
stays as the paper's formula that checks the factorization.
"""

from __future__ import annotations

import math

import numpy as np

from .fockbasis import FockState, Truncation, block_layout, to_blocks
from .spectral import PropagatorCoefficients, eigenvalue, x_parameter
from .specfun import double_factorial, hyp2f1_terminating
from .superops import ModelParams, apply_exp_A, check_time, transformed_block

__all__ = [
    "g_coefficient",
    "PropagatorCoefficients",
    "propagate_phi",
    "similarity_propagate",
    "heisenberg_phi",
    "heisenberg_a_factors",
    "heisenberg_a_factor",
    "simaan_g",
]

def g_coefficient(params: ModelParams, m: int, k: int, r: int, t: float) -> complex:
    """Propagator coefficient G_{r,k}^(m)(t) as the terminating double-2F1 sum."""
    if params.kappa2 <= 0:
        raise ValueError("G coefficients require kappa2 > 0; use propagate_phi")
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


def _coefficients(
    params: ModelParams, trunc: Truncation, t: float,
    coeffs: PropagatorCoefficients | None,
) -> PropagatorCoefficients:
    """``coeffs``, or a fresh set, once t and the set's channel and cutoff are checked."""
    check_time(t)
    if coeffs is None:
        return PropagatorCoefficients(params, trunc)
    if coeffs.truncation != trunc:
        raise ValueError("truncation does not match the coefficients")
    if coeffs.params != params:
        raise ValueError("model parameters do not match the coefficients")
    return coeffs


def _apply_blocks(
    params: ModelParams, op: FockState, t: float,
    coeffs: PropagatorCoefficients | None, transpose: bool,
) -> FockState:
    """T_m(t) (or T_{-m}(t)^T) on every block diagonal of ``op`` at once.

    Only the blocks ``op`` occupies are built, propagated and scattered; the
    others stay zero.  At t = 0 this is ``op`` itself: R_m L_m = I holds only
    to the rounding of binomial-size entries.
    """
    coeffs = _coefficients(params, op.truncation, t, coeffs)
    if t == 0:
        return op.copy()
    rows, cols, filled = coeffs.layout
    v = op.entries[rows, cols]
    occupied = np.flatnonzero(v.any(axis=1))
    at = occupied if len(occupied) < len(v) else None  # a full stack is read whole
    if at is not None:
        v, rows, cols, filled = v[at], rows[at], cols[at], filled[at]
    w = coeffs.apply(v, t, transpose, at)
    entries = np.zeros_like(op.entries)
    entries[rows[filled], cols[filled]] = w[filled]
    state = FockState(entries)
    state.hermitian = op.hermitian
    return state


def propagate_phi(
    params: ModelParams,
    initial: FockState,
    t: float,
    coeffs: PropagatorCoefficients | None = None,
) -> FockState:
    """Exact phi-basis solution of the master equation at time t >= 0.

    Block m of rho(t) is T_m(t) rho_m, every block rho occupies at once by
    :meth:`PropagatorCoefficients.apply` on the gathered stack: at kappa2 > 0
    R_m (e^{Lambda_m t} (L_m rho_m)), factor by factor, at kappa2 = 0 the
    damped-Kerr product form.
    """
    return _apply_blocks(params, initial, t, coeffs, transpose=False)


def similarity_propagate(params: ModelParams, initial: FockState, t: float) -> FockState:
    """rho(t) block by block as e^{-A} e^{T_m t} e^{A} rho_m, with no eigenvector.

    T_m is the bidiagonal closed form :func:`~kerrloss.superops.transformed_block`
    and e^{T_m t} is its dense exponential, which needs no special case where
    the diagonal is confluent (kappa1 = 0).  cond(e^A) grows with the cutoff,
    so this is a check route for small n_max; the result is not marked
    Hermitian, since its rounding can exceed the Hermiticity tolerance.
    """
    from scipy.linalg import expm

    check_time(t)
    trunc = initial.truncation
    rows, cols, _ = block_layout(trunc)
    entries = np.zeros_like(initial.entries)
    for m, v in to_blocks(initial).items():
        T = transformed_block(params, trunc, m).entries
        w = apply_exp_A(expm(T * t) @ apply_exp_A(v, m, 1.0), m, -1.0)
        row = m + trunc.n_max
        entries[rows[row, : len(w)], cols[row, : len(w)]] = w
    return FockState(entries)


def heisenberg_phi(
    params: ModelParams,
    observable: FockState,
    t: float,
    coeffs: PropagatorCoefficients | None = None,
) -> FockState:
    """Heisenberg-picture operator O^H(t) = e^{L'^dag t} O in the phi basis.

    Block m of O^H(t) is T_{-m}(t)^T applied to block m of O, by
    :meth:`PropagatorCoefficients.apply` with the stack read reversed and
    transposed: L_{-m}^T (e^{Lambda_{-m} t} (R_{-m}^T O_m)) at kappa2 > 0.
    """
    return _apply_blocks(params, observable, t, coeffs, transpose=True)


def heisenberg_a_factors(
    params: ModelParams, trunc: Truncation, t: float,
    coeffs: PropagatorCoefficients | None = None,
) -> np.ndarray:
    """Row scalings f_k of a^H(t), k < n_max: f_k = sum_q binom(k, q) G_{k-q,q}^(1)(t).

    binom(k, q) G = sqrt((q+1)/(k+1)) T_1[q, k] with T_1 the block-1
    propagator, so the table is (sqrt(q+1)^T T_1(t)) over sqrt(k+1).  At
    kappa2 > 0 it is ((sqrt(q+1)^T R_1) e^{Lambda_1 t}) L_1: one row-vector
    product per side, and only block 1 is built.  At kappa2 = 0, T_1 is block
    1 of the product form, evaluated alone.
    """
    coeffs = _coefficients(params, trunc, t, coeffs)
    if t == 0:
        # T_1(0) = I
        return np.ones(trunc.n_max, dtype=complex)
    root = np.sqrt(np.arange(1, trunc.n_max + 1))
    if params.kappa2 == 0:
        return root @ coeffs.product_form(t, slice(1, 2))[0, :-1, :-1] / root
    lam, R, L = coeffs.factors(1)
    return (root @ R * np.exp(lam * t)) @ L / root


def heisenberg_a_factor(
    params: ModelParams, trunc: Truncation, k: int, t: float,
    coeffs: PropagatorCoefficients | None = None,
) -> complex:
    """Row k of :func:`heisenberg_a_factors`."""
    if not 0 <= k < trunc.n_max:
        raise ValueError(f"a-factor row k={k} outside 0..{trunc.n_max - 1}")
    return complex(heisenberg_a_factors(params, trunc, t, coeffs)[k])


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
