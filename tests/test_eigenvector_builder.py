"""The exact eigenvector builder: its biorthogonality gate, large cutoffs, a
parameter sweep against the back-substitution oracle, and its recurrence
against an independent binomial-transform reference."""

import math
import operator
import random
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kerrloss import evolution, spectral
from kerrloss.checks import seeded_draws
from kerrloss.fockbasis import FockState, Truncation
from kerrloss.oracle import expm_propagate, left_residual, right_residual
from kerrloss.specfun import (
    DENOMINATOR_FLOOR,
    VanishingDenominatorError,
    hyp2f1_terminating,
)
from kerrloss.superops import InternalConsistencyError, ModelParams, liouvillian_blocks

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
            R[j, k] = ((-1) ** (k - j) * math.sqrt(math.comb(k, j))
                       * math.sqrt(math.comb(k + am, j + am))
                       * hyp2f1_terminating(k - j, 1 - x, 2 - 2 * x - eta, 2.0))
        for q in range(k, size):
            L[k, q] = (math.sqrt(math.comb(q, k)) * math.sqrt(math.comb(q + am, k + am))
                       * hyp2f1_terminating(q - k, x, 2 * x + eta, 2.0))
    return R, L


def _pascal(a, n, h):
    """(sum_i C(j, i) a_i, sum_i C(j, i) a_(h+i)) for j <= n by pairwise sums."""
    lo, hi = [a[0]], [a[h]]
    for _ in range(n):
        a = list(map(operator.add, a, a[1:]))
        lo.append(a[0])
        hi.append(a[h])
    return lo, hi


def _fixed_point_sums(steps, err, n, transform, bits=0):
    """F_j = sum_i C(j, i) a_i (or a_j), j <= n, a_0 = 1, a_i = a_(i-1) (pr + 1j pi) / q,
    as Gaussian integers with 1 = 2^bits, each F_j within 2^n err of exact,
    resolved to 53 + GUARD_BITS bits; returns (re, im, bits)."""
    pad, target = n - len(steps), 53 + spectral.GUARD_BITS
    bound = math.ceil(err) << (n if transform else 0)
    thresh = (bound << target) ** 2
    bits = max(bits, target + bound.bit_length())
    while True:
        re, im = 1 << bits, 0
        ar, ai = [re], [im]
        for pr, pi, q in steps:
            re, im = (re * pr - im * pi) // q, (re * pi + im * pr) // q
            ar.append(re)
            ai.append(im)
        ar, ai = ar + [0] * pad, ai + [0] * pad
        if transform:
            ar, ai = _pascal(ar + ai, n, n + 1) if any(ai) else (_pascal(ar, n, 0)[0], ai)
        f2 = [r * r + i * i for r, i in zip(ar, ai)]
        extra = 0
        for j in (j for j, f in enumerate(f2) if f < thresh):
            need = sum(math.log2(s[2]) for s in steps[:j]) / 2 + math.log2(2 * bound) + 1
            if f2[j] > bound * bound:
                extra = max(extra, bound.bit_length() + target + 1 - f2[j].bit_length() // 2)
            elif bits > need:
                ar[j] = ai[j] = 0
            else:
                extra = max(extra, math.ceil(need) + 1 - bits)
        if not extra:
            return ar, ai, bits
        bits += extra + 16


class BinomialTransformBuilder(spectral.EigenvectorBuilder):
    """The reference: each F_n = sum_i C(n, i) a_i, a_i = (-2)^i (b)_i / (c)_i
    (a_i = s^i at kappa2 = 0), summed by an O(n^2) Pascal pass in fixed point."""

    def _steps(self, am, k, right, n):
        K1, K2, Y = self.K1, self.K2, self.KU * am
        if K2 == 0:
            return [(K1 * K1, -K1 * Y, K1 * K1 + Y * Y)] * n, 2.0 * n
        one, T = 2 * K2, (2 * k + am) * K2
        if right:
            br, bi, cr, ci = one - T, -Y, 2 * one - 2 * T - 2 * K1, -2 * Y
        else:
            br, bi, cr, ci = T, Y, 2 * T + 2 * K1, 2 * Y
        b, c = complex(br / one, bi / one), complex(cr / one, ci / one)
        nr, ni, dr, di = -2 * br, -2 * bi, cr, ci
        steps, err, worst = [], 0.0, 0.0
        for i in range(1, n + 1):
            if nr == 0 and ni == 0:
                break
            if abs(c) * i < DENOMINATOR_FLOOR:
                raise VanishingDenominatorError(f"denominator vanished at order {i}")
            err = err * 2 * abs(b) / abs(c) + 2.0
            worst = max(worst, err)
            steps.append((nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di))
            nr, dr, b, c = nr - 2 * one, dr + one, b + 1, c + 1
        return steps, worst

    def _fill(self, am, k, right, out, bits=0):
        out[k] = 1.0
        n = k if right else len(out) - 1 - k
        if self.K1 == self.K2 == 0 or n == 0:
            return bits
        if self.K1 == 0 and am == 0 and k < 2:
            if not right:
                out[k % 2 :: 2] = 1.0
            return bits
        steps, err = self._steps(am, k, right, n)
        re, im, bits = _fixed_point_sums(steps, err, n, self.K2 != 0, bits)
        scale, root = 1 << (bits + 2 * spectral.ROOT_BITS), self.root
        if right:
            w = [root[k][j] * root[k + am][j] * (-1) ** j for j in range(1, n + 1)]
        else:
            w = [root[k + j][j] * root[k + j + am][j] for j in range(1, n + 1)]
        vals = [complex(r * v / scale, i * v / scale) for r, i, v in zip(re[1:], im[1:], w)]
        out[slice(k - 1, None, -1) if right else slice(k + 1, None)] = vals
        return bits


def _assert_same_factors(params, n_max):
    tr = Truncation(n_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near-integer ratio warning
        mine, ref = spectral.EigenvectorBuilder(params, tr), BinomialTransformBuilder(params, tr)
        for m in range(n_max + 1):
            for a, b in zip(mine.block(m), ref.block(m)):
                assert np.array_equal(a, b), (params, n_max, m, np.argwhere(a != b))


@pytest.mark.parametrize("n_max", [12, 20])
@pytest.mark.parametrize("case", list(spectral.CaseTag), ids=lambda c: c.value)
def test_recurrence_matches_binomial_transform_on_seeded_draws(case, n_max):
    for params in seeded_draws(case, 2, 1200 + n_max):
        _assert_same_factors(params, n_max)


@pytest.mark.parametrize("params, n_max", [
    (GENERIC, 40),
    (NONLINEAR, 40),
    (ModelParams(0.2, 0.3, 10.0, 1e-3), 30),
    (ModelParams(0.5, -0.4, 2.0000002, 1.0), 30),
    (ModelParams(0.1, 0.2, 3.0, 1.0), 30),
], ids=["generic-40", "nonlinear-40", "eta-1e4", "near-integer", "integer-3"])
def test_recurrence_matches_binomial_transform_on_stress_channels(params, n_max):
    _assert_same_factors(params, n_max)


def test_recurrence_error_bound_holds():
    # each fixed-point F_j is within e_j = 2 j last places of its exact value,
    # so two runs of the same recurrence 64 bits apart differ by at most
    # e_j (1 + 2^-64)
    tr = Truncation(20)
    builder = spectral.EigenvectorBuilder(GENERIC, tr)
    for m in (0, 1, 7):
        for k in range(tr.block_size(m)):
            for right in (True, False):
                n = k if right else tr.block_size(m) - 1 - k
                rec = builder._recurrence(m, k, right, n)
                narrow = zip(*spectral._run_recurrence(rec, n, 53 + spectral.GUARD_BITS))
                wide = zip(*spectral._run_recurrence(rec, n, 53 + spectral.GUARD_BITS + 64))
                for j, ((r, i), (R, I)) in enumerate(zip(narrow, wide)):
                    dev2 = (r << 64) - R, (i << 64) - I
                    slack = 2 * j * ((1 << 64) + 1)
                    assert dev2[0] ** 2 + dev2[1] ** 2 <= slack**2, (m, k, right, j)


def _assert_recurrences_admitted(params, n_max):
    """The gate of ``_recurrence`` admits every mode that ``_fill`` runs."""
    tr = Truncation(n_max)
    builder = spectral.EigenvectorBuilder(params, tr)
    if builder.K1 == builder.K2 == 0:
        return  # Hamiltonian only: R = L = I, no recurrence runs
    for m in range(n_max + 1):
        size = tr.block_size(m)
        for k in range(size):
            if builder.K1 == 0 and m == 0 and k < 2:
                continue  # the degenerate pair
            for right in (True, False):
                n = k if right else size - 1 - k
                if n:
                    builder._recurrence(m, k, right, n)


@pytest.mark.parametrize("n_max", [12, 40])
@pytest.mark.parametrize("case", list(spectral.CaseTag), ids=lambda c: c.value)
def test_gate_admits_every_mode_on_seeded_draws(case, n_max):
    for params in seeded_draws(case, 5, 1300 + n_max):
        _assert_recurrences_admitted(params, n_max)


@pytest.mark.parametrize("eta", [-1 / 3, -2], ids=["eta-minus-third", "eta-minus-two"])
def test_negative_eta_fails_the_gate(eta):
    # kappa1 < 0, which ModelParams refuses, is injected into the builder; at
    # eta = -2 the left side of mode 1 and the right side of mode 2 of block 0
    # have c = 0, a vanishing denominator
    builder = spectral.EigenvectorBuilder(GENERIC, Truncation(4))
    builder.K1 = round(eta * builder.K2)
    with pytest.raises(InternalConsistencyError, match="not benign") as exact:
        builder.block(0)
    # the batched build refuses the same first mode, in the same words
    coeffs = spectral.PropagatorCoefficients(GENERIC, Truncation(4))
    coeffs.builder.K1 = builder.K1
    with pytest.raises(InternalConsistencyError, match="not benign") as batched:
        coeffs.stack()
    assert str(batched.value) == str(exact.value)


@pytest.mark.parametrize("eta", [-5.0, -2.0, -1.0, -0.5, -1 / 3, -0.01, 0.0, 0.37, 3.0])
def test_closed_form_gate_decides_as_recurrence(eta):
    # _admitted is the gate of _recurrence in closed form: it admits exactly
    # the modes _recurrence admits, negative kappa1 (injected) included
    for params in (GENERIC, ModelParams(0.3, -2.0, 0.5, 0.01), ModelParams(1.0, 0.5, 0.8, 0.0)):
        tr = Truncation(9)
        builder = spectral.EigenvectorBuilder(params, tr)
        builder.K1 = round(eta * (builder.K2 or builder.K1))
        if builder.K1 == builder.K2 == 0:
            continue
        modes = [(m, k, right, k if right else tr.block_size(m) - 1 - k)
                 for m in range(tr.n_max + 1) for k in range(tr.block_size(m)) for right in (True, False)]
        modes = [mode for mode in modes if mode[3]]
        am, k, right, n = (np.array(v) for v in zip(*modes))
        admitted = builder._admitted(am, k, right, n)
        for mode, verdict in zip(modes, admitted):
            try:
                builder._recurrence(*mode)
                refused = False
            except InternalConsistencyError:
                refused = True
            assert verdict == (not refused), (params, eta, mode)


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
def test_gate_admits_every_mode_on_hard_params(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near-integer ratio warning
        _assert_recurrences_admitted(params, 40)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hard_params())
def test_builder_residuals_no_worse_than_back_substitution(triangular_eigendecomp, params):
    tr = Truncation(8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near-integer ratio warning
        builder = spectral.EigenvectorBuilder(params, tr)
        blocks = {m: builder.block(m) for m in (0, 1, 3)}
    liouvillian = liouvillian_blocks(params, tr)
    for m, (R, L) in blocks.items():
        Lb = liouvillian[m]
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


def _hex(values):
    """Each component's exact bits, the sign of zero included."""
    return [(z.real.hex(), z.imag.hex()) for z in values]


def _true_quotient(re, im, w, shift):
    """The reference: each entry by big-integer true division."""
    scale = 1 << shift
    return [complex(x * v / scale, y * v / scale) for x, y, v in zip(re, im, w)]


def _assert_rounds_as_true_division(re, im, w, shift):
    assert _hex(spectral._round_entries(re, im, w, shift)) == _hex(_true_quotient(re, im, w, shift))


def test_rounding_equals_true_division_on_build_sized_products():
    # F_j at 110-150 working bits times w = root root (2 ROOT_BITS plus up to
    # 40 bits of binomial): products of 300-360 bits, either sign
    rng, two_root = random.Random(26), 2 * spectral.ROOT_BITS

    def signed(bits):  # a random integer of exactly ``bits`` bits, either sign
        return rng.choice((-1, 1)) * ((1 << bits - 1) | rng.getrandbits(bits - 1))

    for _ in range(200):
        bits, n = rng.randrange(110, 150), rng.randrange(1, 30)
        w = [signed(two_root + 1 + rng.randrange(40)) for _ in range(n)]
        re, im = ([signed(rng.randrange(301, 361) - abs(v).bit_length()) for v in w] for _ in "ri")
        assert all(300 <= abs(x * v).bit_length() <= 360 for x, v in zip(re + im, w + w))
        _assert_rounds_as_true_division(re, im, w, bits + two_root)


def test_rounding_equals_true_division_at_midpoints_zero_and_overflow():
    rng, two_root = random.Random(27), 2 * spectral.ROOT_BITS
    shift = 130 + two_root
    # exact midpoints between two doubles (ties to even either way) and one
    # unit either side, at both signs, with 330-bit products
    re = []
    for _ in range(50):
        mid = ((1 << 53) + 2 * rng.getrandbits(52) + 1) << 276
        re += [s * (mid + d) for s in (1, -1) for d in (-1, 0, 1)]
    im = [rng.choice((-1, 0, 1)) * x for x in re]
    w = [rng.choice((-1, 1)) for _ in re]
    _assert_rounds_as_true_division(re, im, w, shift)
    # zero, times either sign of w, is +0.0 in both parts: no -0 appears
    zeros = spectral._round_entries([0, 0, 5], [0, 0, 0], [1 << two_root, -(1 << two_root), -1], shift)
    assert _hex(zeros) == _hex([0j, 0j, complex(-5 / (1 << shift), 0.0)])
    assert _hex(zeros)[1] == ("0x0.0p+0", "0x0.0p+0")
    # products at and past 2^1024, where float() overflows, take true
    # division; so does one entry of a mode that is otherwise in range
    big = [(1 << 1024) - 1, 1 << 1024, 3 << 1100, -((1 << 1024) + 1)]
    for p in big:
        with pytest.raises(OverflowError):
            float(p)
    for p in big:
        _assert_rounds_as_true_division([p, 7], [-p, 0], [1, 1], 600)
    # past 1022 working bits a value can be subnormal, where ldexp would round
    # a second time: x 2^-1135 lies just below the tie 1025.5 2^-1074, and
    # float(x) rounds it onto that tie, so the shift takes true division too
    x, shift = ((2**11 + 3) << 60) - 1, 1135 + two_root
    w = [1 << two_root, -(1 << two_root)]
    assert math.ldexp(float(x * w[0]), -shift) != _true_quotient([x], [0], w, shift)[0].real
    _assert_rounds_as_true_division([x, -x], [x, 3], w, shift)


@pytest.mark.parametrize("params", [
    ModelParams(0.7, 0.4, 0.3, 0.6),
    ModelParams(1.0, 0.5, 0.8, 0.01),
    ModelParams(1.0, 0.5, 0.0, 1.0),
    ModelParams(1.0, 0.5, 1.8, 0.6),
    ModelParams(1.0, 0.5, 0.8, 0.0),
], ids=["generic", "eta-80", "zero-kappa1", "integer-3", "zero-kappa2"])
def test_factors_are_leading_blocks_of_a_larger_cutoff(params):
    # column k of R_m does not depend on the cutoff and row k of L_m only
    # grows with it, so the factors at n_max 12 are, bit for bit, the
    # leading principal blocks of those at n_max 30
    small, large = (spectral.PropagatorCoefficients(params, Truncation(n)) for n in (12, 30))
    for m in Truncation(12).blocks():
        for mine, wide in zip(small.factors(m), large.factors(m)):
            lead = wide[(slice(len(mine)),) * mine.ndim]
            assert mine.tobytes() == np.ascontiguousarray(lead).tobytes(), m


def _assert_batched_is_exact(params, n_max):
    """The batched build writes every block m >= 0, byte for byte (the sign
    of zero included), as the exact path alone (``block``) does; returns the
    number of modes it left to that path."""
    tr = Truncation(n_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # near-integer ratio warning
        coeffs = spectral.PropagatorCoefficients(params, tr)
        coeffs.stack()
        exact = spectral.EigenvectorBuilder(params, tr)
        for m in range(n_max + 1):
            for mine, ref in zip(coeffs.factors(m)[1:], exact.block(m)):
                assert np.ascontiguousarray(mine).tobytes() == ref.tobytes(), (params, n_max, m)
    return coeffs.builder.fallback_modes


@pytest.mark.parametrize("n_max", [3, 12, 20, 40])
@pytest.mark.parametrize("case", list(spectral.CaseTag), ids=lambda c: c.value)
def test_batched_build_is_exact_on_seeded_draws(case, n_max):
    for params in seeded_draws(case, 2, 1400 + n_max):
        _assert_batched_is_exact(params, n_max)


@pytest.mark.parametrize("params, n_max", [
    (ModelParams(1.0, 0.5, 1e-12, 1.0), 40),
    (ModelParams(1.0, 1000.0, 0.3, 0.1), 40),
    (ModelParams(0.3, 0.2, 0.0, 0.6), 20),
    (ModelParams(0.2, 0.3, 10.0, 1e-3), 30),
    (ModelParams(0.5, -0.4, 2.0000002, 1.0), 30),
    (ModelParams(0.1, 0.2, 3.0, 1.0), 30),
], ids=["kappa1-1e-12", "U-1000", "over-1022-bits", "eta-1e4", "near-integer", "integer-3"])
def test_batched_build_is_exact_on_stress_channels(params, n_max):
    _assert_batched_is_exact(params, n_max)


@pytest.mark.parametrize("params", [GENERIC, ModelParams(0.7, 0.4, 0.3, 0.6)], ids=["generic", "roadmap"])
@pytest.mark.parametrize("n_max", [20, 40])
def test_generic_builds_take_no_fallback(params, n_max):
    assert _assert_batched_is_exact(params, n_max) == 0


def test_forced_fallback_gives_the_same_bytes(monkeypatch):
    # a pass that certifies nothing leaves every mode to _fill
    tr = Truncation(12)
    _, R, L = spectral.PropagatorCoefficients(GENERIC, tr).stack()
    monkeypatch.setattr(spectral.EigenvectorBuilder, "_run_batch",
                        lambda self, am, k, right, n, R, L: np.ones(len(n), dtype=bool))
    coeffs = spectral.PropagatorCoefficients(GENERIC, tr)
    _, R2, L2 = coeffs.stack()
    assert coeffs.builder.fallback_modes == sum(2 * (s - 1) for s in range(1, tr.dim + 1))
    assert R.tobytes() == R2.tobytes() and L.tobytes() == L2.tobytes()


@pytest.mark.parametrize("params", [
    GENERIC,
    NONLINEAR,
    ModelParams(1.0, 0.5, 1e-12, 1.0),
    ModelParams(0.5, -0.4, 2.0000002, 1.0),
    ModelParams(1.0, 0.5, 0.8, 0.0),
    ModelParams(1.0, 1000.0, 0.3, 0.1),
], ids=["generic", "nonlinear", "kappa1-1e-12", "near-integer", "zero-kappa2", "U-1000"])
def test_double_double_bound_holds(monkeypatch, params):
    # every F_j of the double-double pass lies within STEP_ERROR Et_j of the
    # exact value, taken from the fixed-point recurrence at 400 bits (G_j on
    # the right side), for every cell the pass certifies or not
    tr, seen = Truncation(12), []
    original = spectral.EigenvectorBuilder._certify

    def recorded(self, F, Et, ok, am, k, right, jj, ii, R, L):
        seen.append((F.copy(), Et.copy(), am, k, right, jj, ii))
        return original(self, F, Et, ok, am, k, right, jj, ii, R, L)

    monkeypatch.setattr(spectral.EigenvectorBuilder, "_certify", recorded)
    coeffs = spectral.PropagatorCoefficients(params, tr)
    coeffs.stack()
    bits, worst = 400, 0.0
    for F, Et, am, k, right, jj, ii in seen:
        c = Et.shape[1]
        for cell, (j, i) in enumerate(zip(jj.tolist(), ii.tolist())):
            m, kk, r = int(am[i]), int(k[i]), bool(right[i])
            n = kk if r else tr.block_size(m) - 1 - kk
            rec = coeffs.builder._recurrence(m, kk, r, n)
            re, im = spectral._run_recurrence(rec, j + 1, bits)
            sign = (-1) ** (j + 1) if r else 1
            exact = (Fraction(sign * re[-1], 1 << bits), Fraction(sign * im[-1], 1 << bits))
            mine = [Fraction(F[0, part, cell]) + Fraction(F[1, part, cell]) for part in (0, 1)]
            dev = math.hypot(*(float(a - b) for a, b in zip(mine, exact))) + 2 * (j + 1) * 2.0**-bits
            bound = spectral.STEP_ERROR * Et[j + 2, i]
            assert dev <= bound, (params, m, kk, r, j, dev, bound)
            worst = max(worst, dev / bound)
    print(f"{params}: worst deviation {worst:.3g} of the bound")


def test_build_chunks_give_identical_factors_in_bounded_memory(monkeypatch):
    # 1 MiB chunks split the n_max 40 build into eight; the bytes are the
    # same as in one chunk, and the pass holds about one chunk at a time
    tr = Truncation(40)
    _, R, L = spectral.PropagatorCoefficients(GENERIC, tr).stack()
    monkeypatch.setattr(spectral, "BUILD_CHUNK_BYTES", 1 << 20)
    builder = spectral.EigenvectorBuilder(GENERIC, tr)
    builder._root_dd
    R2, L2 = (np.zeros((tr.dim,) * 3, dtype=complex) for _ in "RL")
    tracemalloc.start()
    try:
        builder.fill_blocks(list(range(tr.n_max + 1)), R2, L2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert R[tr.n_max :].tobytes() == R2.tobytes() and L[tr.n_max :].tobytes() == L2.tobytes()
    assert peak < 1.1 * spectral.BUILD_CHUNK_BYTES, peak


def _perturb_blocks(monkeypatch, scale):
    """Builder whose block m has L[0, 1] scaled by 1 + scale[m]."""
    original = spectral.EigenvectorBuilder.fill_blocks

    def perturbed(self, ams, R, L):
        original(self, ams, R, L)
        for m in ams:
            if m in scale:
                L[m, 0, 1] *= 1 + scale[m]

    monkeypatch.setattr(spectral.EigenvectorBuilder, "fill_blocks", perturbed)


def test_stacked_gate_names_the_failing_block(monkeypatch):
    tr = Truncation(10)
    _perturb_blocks(monkeypatch, {3: 1e-9})
    with pytest.raises(InternalConsistencyError, match=r"block m=3: .* x its bound"):
        spectral.PropagatorCoefficients(GENERIC, tr).stack()
    _perturb_blocks(monkeypatch, {2: 1e-9, 6: 1e-5})
    with pytest.raises(InternalConsistencyError, match=r"block m=6: "):
        spectral.PropagatorCoefficients(GENERIC, tr).stack()


def test_factors_gate_the_one_block_they_build(monkeypatch):
    tr = Truncation(10)
    gated, original = [], spectral.check_biorthogonality

    def recorded(R, L, sizes=None, labels=None):
        gated.append(list(labels))
        return original(R, L, sizes, labels)

    monkeypatch.setattr(spectral, "check_biorthogonality", recorded)
    coeffs = spectral.PropagatorCoefficients(GENERIC, tr)
    evolution.heisenberg_a_factors(GENERIC, tr, 1.0, coeffs)  # the a-factor path: block 1 alone
    coeffs.factors(-1)
    assert gated == [[1]]
    coeffs.stack()  # one gate per run of the blocks it builds: block 1 is not gated again
    assert gated == [[1], [0], list(range(2, tr.n_max + 1))]
    _perturb_blocks(monkeypatch, {1: 1e-9})
    coeffs = spectral.PropagatorCoefficients(GENERIC, tr)
    coeffs.factors(2)
    with pytest.raises(InternalConsistencyError, match="block m=1: "):
        coeffs.factors(-1)


def test_gate_chunks_give_identical_margins(monkeypatch):
    tr = Truncation(16)
    _, R, L = spectral.PropagatorCoefficients(NONLINEAR, tr).stack()
    sizes = [tr.block_size(m) for m in tr.blocks()]
    whole = spectral.check_biorthogonality(R, L, sizes)
    monkeypatch.setattr(spectral, "GATE_CHUNK_BYTES", 3 * 24 * tr.dim**2)
    assert np.array_equal(spectral.check_biorthogonality(R, L, sizes), whole)
    assert whole.shape == (2 * tr.n_max + 1,) and np.all(whole <= 1.0)


def test_gate_memory_is_bounded():
    # 101 zero-padded identity pairs of size 101, 16 MB each stack: gated as
    # one chunk, the temporaries would take 25 MB
    size = 101
    R = np.zeros((size, size, size), dtype=complex)
    R[:, np.arange(size), np.arange(size)] = np.arange(size) < size - np.arange(size)[:, None]
    L = R.copy()
    tracemalloc.start()
    try:
        margins = spectral.check_biorthogonality(R, L, size - np.arange(size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(margins == 0.0)
    assert peak < 1.1 * spectral.GATE_CHUNK_BYTES, peak
