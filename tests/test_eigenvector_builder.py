"""The exact eigenvector builder: its biorthogonality gate, large cutoffs and
a parameter sweep against the back-substitution oracle."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kerrloss import evolution, spectral
from kerrloss.fockbasis import FockState, Truncation
from kerrloss.oracle import expm_propagate, left_residual, right_residual, triangular_eigendecomp
from kerrloss.specfun import VanishingDenominatorError, hyp2f1_terminating, sqrt_binom
from kerrloss.superops import InternalConsistencyError, ModelParams, liouvillian_block

GENERIC = ModelParams(0.9, 0.6, 0.37, 1.1)
NONLINEAR = ModelParams(1.0, 0.0, 1.0, 10.0)


def double_precision_factors(params, trunc, m):
    """R_m, L_m from the terminating sums summed in double precision."""
    eta = params.kappa1 / params.kappa2
    size, am = trunc.block_size(m), abs(m)
    R = np.zeros((size, size), dtype=complex)
    L = np.zeros((size, size), dtype=complex)
    for k in range(size):
        x = spectral.x_parameter(params, m, k)
        for j in range(k + 1):
            R[j, k] = ((-1) ** (k - j) * sqrt_binom(k, j) * sqrt_binom(k + am, j + am)
                       * hyp2f1_terminating(k - j, 1 - x, 2 - 2 * x - eta, 2.0))
        for q in range(k, size):
            L[k, q] = (sqrt_binom(q, k) * sqrt_binom(q + am, k + am)
                       * hyp2f1_terminating(q - k, x, 2 * x + eta, 2.0))
    return R, L


def test_gate_fires_on_double_precision_factors():
    tr = Truncation(20)
    with pytest.raises(InternalConsistencyError, match="x its bound"):
        for m in range(4):
            spectral.check_biorthogonality(*double_precision_factors(NONLINEAR, tr, m))


def test_gate_margin_at_nmax_40():
    tr = Truncation(40)
    for params in (GENERIC, NONLINEAR):
        margins = [spectral.check_biorthogonality(*spectral.EigenvectorBuilder(params, tr).block(m))
                   for m in range(tr.n_max + 1)]
        print(f"n_max 40 gate margin {params}: worst ratio {max(margins):.3g}")
        assert max(margins) <= 1.0


def test_builder_matches_closed_form_at_small_cutoff():
    # kappa2 = 0 blocks have the closed form R[p, k] = (-s)^(k-p) pre,
    # L[k, q] = s^(q-k) pre with s = 1 / (1 + i m U / kappa1)
    params = ModelParams(1.0, 0.5, 0.8, 0.0)
    tr = Truncation(6)
    m = 2
    R, L = spectral.EigenvectorBuilder(params, tr).block(m)
    s = 1 / (1 + 1j * m * params.U / params.kappa1)
    for k in range(tr.block_size(m)):
        for p in range(k + 1):
            pre = math.sqrt(math.comb(k, p) * math.comb(k + m, p + m))
            assert R[p, k] == pytest.approx((-s) ** (k - p) * pre, rel=1e-15)
            assert L[p, k] == pytest.approx(s ** (k - p) * pre, rel=1e-15)


def test_entries_are_correctly_rounded():
    # an independent 50-digit evaluation of every entry, one naive sum each
    tr, mp = Truncation(10), mpmath.mp
    U, k1, k2 = (mp.mpf(v) for v in (GENERIC.U, GENERIC.kappa1, GENERIC.kappa2))
    with mpmath.workdps(50):
        for m in (0, 3):
            R, L = spectral.EigenvectorBuilder(GENERIC, tr).block(m)
            for k in range(tr.block_size(m)):
                x = mp.mpf(2 * k + m) / 2 + 1j * U * m / (2 * k2)
                for p in range(tr.block_size(m)):
                    lo, hi, n = min(p, k), max(p, k), abs(p - k)
                    w = mp.sqrt(mp.binomial(hi, lo) * mp.binomial(hi + m, lo + m))
                    b, c = (1 - x, 2 - 2 * x - k1 / k2) if p < k else (x, 2 * x + k1 / k2)
                    F = mp.fsum(mp.binomial(n, i) * (-2) ** i * mp.rf(b, i) / mp.rf(c, i)
                                for i in range(n + 1))
                    if p <= k:
                        assert R[p, k] == complex((-1) ** n * w * F), (m, k, p)
                    if p >= k:
                        assert L[k, p] == complex(w * F), (m, k, p)


def test_true_zeros_are_exact_at_zero_kappa1():
    # 2F1(-n, b; 2b; 2) = 0 for odd n, so every entry an odd distance off the
    # diagonal vanishes at kappa1 = 0 (apart from the degenerate pair); float
    # parameters with large denominators need a second, wider pass to prove it
    params = ModelParams(1.0, 0.4, 0.0, 0.6)
    tr = Truncation(10)
    for m in (0, 1, 3):
        R, L = spectral.EigenvectorBuilder(params, tr).block(m)
        size = tr.block_size(m)
        for k in range(2 if m == 0 else 0, size):
            for j in range(1, size, 2):
                if j <= k:
                    assert R[k - j, k] == 0
                if k + j < size:
                    assert L[k, k + j] == 0


def test_reachable_vanishing_denominator_raises():
    # eta = -2 makes c vanish in block 0 (left side of mode 1, right side of
    # mode 2) while the numerator b does not: the sum must raise at order 1
    builder = spectral.EigenvectorBuilder(GENERIC, Truncation(4))
    builder.K1 = -2 * builder.K2
    with pytest.raises(VanishingDenominatorError, match="order 1"):
        builder.block(0)


@pytest.mark.parametrize("n_max, tol", [(30, 1e-10), (40, 2e-9)])
@pytest.mark.parametrize("params", [GENERIC, NONLINEAR], ids=["generic", "nonlinear"])
def test_large_cutoff_propagation_matches_expm(params, n_max, tol):
    tr = Truncation(n_max)
    rng = np.random.default_rng(n_max)
    X = rng.normal(size=(tr.dim, tr.dim)) + 1j * rng.normal(size=(tr.dim, tr.dim))
    mixed = X @ X.conj().T
    states = [FockState.fock(tr, n_max), FockState(mixed / np.trace(mixed).real, hermitian=True)]
    coeffs = evolution.PropagatorCoefficients(params, tr)
    for state in states:
        for t in (0.0, 0.1 / params.kappa2, 1.0 / params.kappa2):
            ref = expm_propagate(params, state, t).entries
            mine = evolution.propagate_phi(params, state, t, coeffs).entries
            dev = np.max(np.abs(mine - ref)) / np.max(np.abs(ref))
            assert dev < tol, (n_max, t, dev)


def _near_integer_ratio(draw):
    kappa2 = draw(st.floats(0.1, 2.0))
    gap = draw(st.floats(1e-9, 1e-6)) * draw(st.sampled_from([-1, 1]))
    ratio = draw(st.integers(1, 3)) + gap
    return ModelParams(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)), ratio * kappa2, kappa2)


def _large_u(draw):
    kappa2 = draw(st.floats(0.01, 1.0))
    U = draw(st.floats(10.0, 1e4)) * kappa2 * draw(st.sampled_from([-1, 1]))
    return ModelParams(draw(st.floats(-1, 1)), U, draw(st.floats(0.05, 2.0)), kappa2)


def _small_kappa1(draw):
    # below a ratio of 1e-9 the case is tagged ZERO_KAPPA1, but only kappa1 = 0
    # is degenerate; the builder must give the true eigenvectors above it
    kappa2 = draw(st.floats(0.1, 2.0))
    kappa1 = draw(st.sampled_from([0.0, 1.0])) * 10 ** draw(st.floats(-14, -2)) * kappa2
    return ModelParams(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)), kappa1, kappa2)


@st.composite
def hard_params(draw):
    return draw(st.sampled_from([_near_integer_ratio, _large_u, _small_kappa1]))(draw)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hard_params())
def test_builder_residuals_no_worse_than_back_substitution(params):
    tr = Truncation(8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near-integer ratio warning
        builder = spectral.EigenvectorBuilder(params, tr)
        blocks = {m: builder.block(m) for m in (0, 1, 3)}
    for m, (R, L) in blocks.items():
        Lb = liouvillian_block(params, tr, m)
        _, R_ref, L_ref = triangular_eigendecomp(Lb)
        for k in range(tr.block_size(m)):
            if params.kappa1 == 0 and m == 0 and k < 2:
                continue  # the degenerate pair is a basis choice
            lam = spectral.eigenvalue(params, m, k)
            for res, mine, ref in (
                (right_residual, R[:, k], R_ref[:, k]),
                (left_residual, L[k], L_ref[k]),
            ):
                floor = 1e-14 * tr.block_size(m)
                assert res(Lb, lam, mine) <= max(10 * res(Lb, lam, ref), floor), (m, k)
